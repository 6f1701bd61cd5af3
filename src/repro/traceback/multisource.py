"""Multi-source traceback: several moles injecting at once.

The paper leaves "the path reconstruction algorithm in the presence of
multiple source moles" as future work (Section 9).  This module provides
the natural extension: on a routing tree, traffic from ``k`` sources forms
a *forest* merging toward the sink, so the precedence graph acquires ``k``
in-degree-0 components -- which single-source analysis deliberately treats
as "equivocal".

The refinement distinguishes "several true sources" from "one source whose
path is not yet fully ordered" by *support*: every verified chain starts at
some node (its most upstream marker), and over time chain heads concentrate
on each source's first forwarder ``V_1^{(i)}`` (probability ``p`` per
packet) while transient heads deeper in the path decay.  A source
component is **confirmed** once it has accumulated at least
``min_support`` chain-head observations; the verdict then lists one
suspect neighborhood per confirmed component.

The same one-hop guarantee holds per component: each confirmed most
upstream marker has a mole within one hop (its packets genuinely started
there, by consecutive traceability), so quarantining every suspect
neighborhood covers every active source.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.traceback.localize import SuspectNeighborhood
from repro.traceback.sink import TracebackSink

__all__ = ["MultiSourceVerdict", "MultiSourceTracebackSink"]


@dataclass(frozen=True)
class MultiSourceVerdict:
    """The sink's answer when multiple sources may be active.

    Attributes:
        suspects: one neighborhood per confirmed source component, ordered
            by descending support.
        unconfirmed_candidates: in-degree-0 nodes that lack support so far
            (either young sources or not-yet-ordered path fragments).
        packets_used: packets processed.
        loop_detected: identity-swapping loops seen anywhere.
    """

    suspects: tuple[SuspectNeighborhood, ...]
    unconfirmed_candidates: frozenset[int]
    packets_used: int
    loop_detected: bool

    @property
    def num_sources(self) -> int:
        return len(self.suspects)


class MultiSourceTracebackSink(TracebackSink):
    """A traceback sink that resolves several concurrent sources.

    Args:
        min_support: chain-head observations required to confirm a source
            component.  Low values confirm faster but can briefly split
            one source into two candidates while its path is unordered;
            the default of 3 is conservative for ``p >= 0.1``.
        **kwargs: forwarded to :class:`~repro.traceback.sink.TracebackSink`.
    """

    def __init__(self, *args, min_support: int = 3, **kwargs):
        super().__init__(*args, **kwargs)
        if min_support < 1:
            raise ValueError(f"min_support must be >= 1, got {min_support}")
        self.min_support = min_support
        self._head_counts: Counter[int] = Counter()

    def receive(self, packet, delivering_node):
        verification = super().receive(packet, delivering_node)
        if verification.chain_ids:
            self._head_counts[verification.chain_ids[0]] += 1
        return verification

    def multi_verdict(self) -> MultiSourceVerdict:
        """Resolve every source component currently supported."""
        analysis = self.route_analysis()
        suspects: list[SuspectNeighborhood] = []
        unconfirmed: set[int] = set()

        # Examine each in-degree-0 component of the condensation.  The
        # single-source analysis already knows them as source_candidates;
        # group them by component via the loop sets.
        loop_members = set().union(*analysis.loops) if analysis.loops else set()
        for candidate in sorted(analysis.source_candidates):
            if candidate in loop_members:
                # Identity-swapping component: defer to the loop logic.
                continue
            support = self._head_counts[candidate]
            if support >= self.min_support:
                suspects.append(
                    SuspectNeighborhood(
                        center=candidate,
                        members=frozenset(
                            self.topology.closed_neighborhood(candidate)
                        ),
                    )
                )
            else:
                unconfirmed.add(candidate)

        # Loops are confirmed sources by construction (contradictory
        # orders cannot arise without moles); localize each source-side
        # loop at its line attachment point, like the single-source case.
        for loop in analysis.loops:
            if not (loop & analysis.source_candidates):
                continue  # the loop has upstream evidence: not a source
            attachment = self.precedence._attachment_point(loop)
            if attachment is None:
                attachment = self._last_delivering_node
            if attachment is None or attachment == self.topology.sink:
                continue
            suspects.append(
                SuspectNeighborhood(
                    center=attachment,
                    members=frozenset(
                        self.topology.closed_neighborhood(attachment)
                    ),
                    via_loop=True,
                )
            )

        suspects.sort(key=lambda s: -self._head_counts[s.center])
        return MultiSourceVerdict(
            suspects=tuple(suspects),
            unconfirmed_candidates=frozenset(unconfirmed),
            packets_used=self.packets_received,
            loop_detected=analysis.has_loop,
        )
