"""Sink-side algebraic path recovery with incremental churn repair.

The solver turns a stream of :class:`AlgebraicObservation` records -- one
per delivered packet: (evaluation point, hop count, accumulator value,
delivering neighbor, MAC-attributed last updater) -- into *confirmed
paths*.  It is the first sink component in this codebase that is stateful
across topology changes: when :mod:`repro.faults` churn rewrites a route
mid-run, the solver keeps the shared prefix of its previous estimate and
re-interpolates only the changed suffix
(:func:`repro.algebraic.field.solve_suffix`), needing as few distinct
evaluation points as there are changed hops -- instead of restarting
convergence from zero the way PNM's coupon-collection over per-hop marks
does.

Candidate acceptance is deliberately conservative; a candidate path is
confirmed only if **all** of the following hold:

* every coefficient decodes to a real sensor ID, with no repeats;
* consecutive coefficients are radio neighbors, and the final hop is a
  radio neighbor of the sink (topology admissibility);
* the final coefficient equals the delivering neighbor, and at least one
  used observation's final MAC *cryptographically* attributes that node
  (the anchor -- interpolation alone never convicts);
* every used observation is exactly explained by the candidate.

Under honest operation a wrong candidate must fake all of these at once
across multiple independent evaluation points, which the property suite
shows does not happen; garbage (from a garbling mole) simply never
confirms and is retained in a bounded pending buffer.

Determinism (the cluster-equivalence contract): the solver's output is a
pure function of the *canonically ordered* observation multiset --
:func:`solve_observations` sorts before replaying -- so a single sink and
a coordinator merging per-shard observation lists compute byte-identical
confirmed paths, whatever the arrival interleaving or shard count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebraic.errors import MalformedObservationError
from repro.algebraic.field import PRIME, eval_poly, interpolate, solve_suffix
from repro.algebraic.marking import MAX_PATH_LEN
from repro.net.topology import Topology

__all__ = [
    "AlgebraicObservation",
    "AlgebraicSolution",
    "AlgebraicSolver",
    "solve_observations",
]

#: Newest pending observations retained per (delivering, count) group.
#: Bounds memory and per-observation work under adversarial floods.
DEFAULT_MAX_PENDING = 128


@dataclass(frozen=True)
class AlgebraicObservation:
    """One delivered packet's algebraic evidence.

    Attributes:
        timestamp: the report timestamp (virtual milliseconds) -- the
            canonical ordering key, so replaying sorted observations
            approximates arrival order deterministically.
        point: the public evaluation point ``x`` of the report.
        count: the hop count the accumulator claims.
        value: the accumulator's polynomial evaluation ``f(x)``.
        delivering_node: the sink neighbor that physically handed the
            packet over (always known to the sink).
        last_hop: the node whose key validated the final MAC, or ``None``
            when no key validated it (tampered in the last hop's slot).
    """

    timestamp: int
    point: int
    count: int
    value: int
    delivering_node: int
    last_hop: int | None

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        """Canonical 6-int wire/evidence form (``last_hop`` as ``+1``,
        0 meaning unattributed); tuples sort in canonical order."""
        last = 0 if self.last_hop is None else self.last_hop + 1
        return (
            self.timestamp,
            self.point,
            self.count,
            self.value,
            self.delivering_node,
            last,
        )

    @classmethod
    def from_tuple(
        cls, raw: tuple[int, int, int, int, int, int]
    ) -> "AlgebraicObservation":
        """Rebuild from :meth:`as_tuple` output.

        Raises:
            MalformedObservationError: wrong arity or negative fields
                (range checks beyond non-negativity are the solver's
                well-formedness filter, which *counts* rather than raises).
        """
        if len(raw) != 6:
            raise MalformedObservationError(
                f"observation tuple has {len(raw)} fields, expected 6"
            )
        if any(not isinstance(v, int) or v < 0 for v in raw):
            raise MalformedObservationError(
                f"observation fields must be non-negative ints: {raw!r}"
            )
        timestamp, point, count, value, delivering, last = raw
        return cls(
            timestamp=timestamp,
            point=point,
            count=count,
            value=value,
            delivering_node=delivering,
            last_hop=None if last == 0 else last - 1,
        )


@dataclass(frozen=True)
class AlgebraicSolution:
    """A deterministic snapshot of the solver's findings.

    Attributes:
        confirmed_paths: every path ever confirmed, sorted ascending --
            old routes stay (they were real when observed; precedence
            evidence is cumulative, like PNM's).
        estimates: the current path per ``(delivering_node, count)``
            group, as a sorted tuple of ``(delivering, count, path)``.
        observations / malformed / consistent: stream counters.
        full_solves: confirmations from full interpolation.
        incremental_repairs: confirmations that reused a prior estimate's
            prefix -- the churn-repair count the sweep reports.
        rejected_candidates: interpolated candidates that failed the
            admissibility/anchor checks (garbage never confirms).
    """

    confirmed_paths: tuple[tuple[int, ...], ...] = ()
    estimates: tuple[tuple[int, int, tuple[int, ...]], ...] = ()
    observations: int = 0
    malformed: int = 0
    consistent: int = 0
    full_solves: int = 0
    incremental_repairs: int = 0
    rejected_candidates: int = 0


@dataclass
class _Group:
    """Mutable per-(delivering, count) solver state."""

    estimate: tuple[int, ...] | None = None
    pending: list[AlgebraicObservation] = field(default_factory=list)


class AlgebraicSolver:
    """Incremental path recovery over an observation stream.

    Args:
        topology: the deployment graph; supplies the sensor-ID universe
            and the adjacency the admissibility checks enforce.
        max_pending: newest unexplained observations retained per
            ``(delivering, count)`` group.
    """

    def __init__(self, topology: Topology, max_pending: int = DEFAULT_MAX_PENDING):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.topology = topology
        self.max_pending = max_pending
        self._sensor_ids = frozenset(topology.sensor_nodes())
        self._groups: dict[tuple[int, int], _Group] = {}
        self._confirmed: set[tuple[int, ...]] = set()
        self.observations = 0
        self.malformed = 0
        self.consistent = 0
        self.full_solves = 0
        self.incremental_repairs = 0
        self.rejected_candidates = 0

    # Stream side -------------------------------------------------------------

    def observe(self, obs: AlgebraicObservation) -> tuple[int, ...] | None:
        """Fold one observation in; return a newly confirmed path, if any.

        Total over garbage: out-of-range fields are counted as malformed
        and dropped; inconsistent values sit in the bounded pending buffer
        until enough mutually consistent points confirm a path (or they
        age out).  Never raises on adversarial field values.
        """
        self.observations += 1
        if not self._well_formed(obs):
            self.malformed += 1
            return None
        key = (obs.delivering_node, obs.count)
        group = self._groups.setdefault(key, _Group())
        if group.estimate is not None and self._explains(group.estimate, obs):
            self.consistent += 1
            return None
        group.pending.append(obs)
        del group.pending[: -self.max_pending]
        path = self._attempt(key, group)
        if path is None:
            return None
        group.estimate = path
        self._confirmed.add(path)
        group.pending = [o for o in group.pending if not self._explains(path, o)]
        return path

    def confirmed_paths(self) -> tuple[tuple[int, ...], ...]:
        """Every confirmed path so far, sorted ascending."""
        return tuple(sorted(self._confirmed))

    def solution(self) -> AlgebraicSolution:
        """Freeze the current state into a canonical snapshot."""
        estimates = tuple(
            (key[0], key[1], group.estimate)
            for key, group in sorted(self._groups.items())
            if group.estimate is not None
        )
        return AlgebraicSolution(
            confirmed_paths=self.confirmed_paths(),
            estimates=estimates,
            observations=self.observations,
            malformed=self.malformed,
            consistent=self.consistent,
            full_solves=self.full_solves,
            incremental_repairs=self.incremental_repairs,
            rejected_candidates=self.rejected_candidates,
        )

    # Internals ---------------------------------------------------------------

    def _well_formed(self, obs: AlgebraicObservation) -> bool:
        return (
            obs.timestamp >= 0
            and 1 <= obs.point < PRIME
            and 1 <= obs.count <= MAX_PATH_LEN
            and 0 <= obs.value < PRIME
            and obs.delivering_node >= 0
            and (obs.last_hop is None or obs.last_hop >= 0)
        )

    def _explains(self, path: tuple[int, ...], obs: AlgebraicObservation) -> bool:
        """Whether ``path`` exactly accounts for ``obs``."""
        if len(path) != obs.count or path[-1] != obs.delivering_node:
            return False
        if obs.last_hop is not None and obs.last_hop != path[-1]:
            return False
        return eval_poly(path, obs.point) == obs.value

    def _attempt(
        self, key: tuple[int, int], group: _Group
    ) -> tuple[int, ...] | None:
        """Try to confirm a path for one group from its pending points.

        Tries the longest reusable prefix first (incremental repair),
        falling back to a full interpolation at prefix length 0.  All
        iteration orders are explicitly sorted -- the solver's output
        must not depend on hash order (cluster determinism contract).
        """
        delivering, count = key
        points = self._newest_distinct(group.pending)
        if not points:
            return None
        donors = sorted(
            {
                self._groups[group_key].estimate
                for group_key in sorted(self._groups)
                if self._groups[group_key].estimate is not None
            }
        )
        max_prefix = min(
            count - 1, max((len(d) for d in donors), default=0)
        )
        for prefix_len in range(max_prefix, -1, -1):
            unknown = count - prefix_len
            if len(points) < unknown:
                continue
            use = points[:unknown]
            if not any(o.last_hop == delivering for o in use):
                # No cryptographic anchor among the points that would
                # decide the candidate: interpolation alone never confirms.
                continue
            if prefix_len == 0:
                prefixes: list[tuple[int, ...]] = [()]
            else:
                prefixes = sorted(
                    {d[:prefix_len] for d in donors if len(d) >= prefix_len}
                )
            xs = tuple(o.point for o in use)
            ys = tuple(o.value for o in use)
            for prefix in prefixes:
                try:
                    suffix = (
                        solve_suffix(prefix, count, xs, ys)
                        if prefix
                        else interpolate(xs, ys)
                    )
                except (ValueError, ZeroDivisionError):  # pragma: no cover
                    continue  # distinct points make this unreachable
                candidate = tuple(prefix) + suffix
                if not self._admissible(candidate, delivering):
                    self.rejected_candidates += 1
                    continue
                if not all(self._explains(candidate, o) for o in use):
                    self.rejected_candidates += 1
                    continue
                if prefix_len:
                    self.incremental_repairs += 1
                else:
                    self.full_solves += 1
                return candidate
        return None

    def _newest_distinct(
        self, pending: list[AlgebraicObservation]
    ) -> list[AlgebraicObservation]:
        """Newest-first pending observations, one per evaluation point.

        Newest wins within a point: after churn the latest value reflects
        the current route, and interpolation needs distinct points anyway.
        """
        seen: set[int] = set()
        picked = []
        for obs in reversed(pending):
            if obs.point in seen:
                continue
            seen.add(obs.point)
            picked.append(obs)
        return picked

    def _admissible(self, candidate: tuple[int, ...], delivering: int) -> bool:
        """Topology/anchor admissibility of an interpolated candidate."""
        if not candidate or candidate[-1] != delivering:
            return False
        if len(set(candidate)) != len(candidate):
            return False
        for node in candidate:
            if node not in self._sensor_ids:
                return False
        for upstream, downstream in zip(candidate, candidate[1:]):
            if not self.topology.has_edge(upstream, downstream):
                return False
        return self.topology.has_edge(candidate[-1], self.topology.sink)

    def __repr__(self) -> str:
        return (
            f"AlgebraicSolver(observations={self.observations}, "
            f"confirmed={len(self._confirmed)})"
        )


def solve_observations(
    observations, topology: Topology, max_pending: int = DEFAULT_MAX_PENDING
) -> AlgebraicSolution:
    """Replay observations in canonical order through a fresh solver.

    The pure-function form of :class:`AlgebraicSolver`: output depends
    only on the observation *multiset* (sorted before replay), which is
    what makes the cluster coordinator's merged verdict byte-identical to
    the single sink's -- both call exactly this on the same multiset.
    """
    solver = AlgebraicSolver(topology, max_pending=max_pending)
    for obs in sorted(observations, key=AlgebraicObservation.as_tuple):
        solver.observe(obs)
    return solver.solution()
