"""Behavior common to all marking schemes."""

import pytest

from repro.marking import SCHEME_CLASSES, MarkingScheme, scheme_by_name
from tests.conftest import ctx_for, mark_through_path


def all_schemes() -> list[MarkingScheme]:
    return [
        scheme_by_name("none"),
        scheme_by_name("ppm", mark_prob=1.0),
        scheme_by_name("ams", mark_prob=1.0),
        scheme_by_name("nested"),
        scheme_by_name("partial-nested"),
        scheme_by_name("naive-pnm", mark_prob=1.0),
        scheme_by_name("pnm", mark_prob=1.0),
    ]



# The algebraic accumulator scheme replaces its single mark per hop, so
# the append-style assertions below (num_marks == path length, per-index
# verification) don't apply; its behavior lives in tests/test_algebraic.
MARKING_SCHEMES = [s for s in all_schemes() if s.name != "none"]


class TestRegistry:
    def test_all_names_registered(self):
        assert set(SCHEME_CLASSES) == {
            "none",
            "ppm",
            "ams",
            "nested",
            "partial-nested",
            "naive-pnm",
            "pnm",
            "algebraic",
        }

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown scheme"):
            scheme_by_name("quantum")

    def test_kwargs_forwarded(self):
        scheme = scheme_by_name("pnm", mark_prob=0.25, anon_id_len=2)
        assert scheme.mark_prob == 0.25
        assert scheme.fmt.id_len == 2

    def test_names_match_instances(self):
        for name, cls in SCHEME_CLASSES.items():
            assert cls.name == name


@pytest.mark.parametrize("scheme", MARKING_SCHEMES, ids=lambda s: s.name)
class TestCommonBehavior:
    def test_honest_mark_verifies(self, scheme, keystore, provider, packet):
        marked = mark_through_path(scheme, keystore, provider, [4], packet)
        assert marked.num_marks == 1
        assert scheme.verify_mark_as(marked, 0, 4, keystore[4], provider)

    def test_wrong_key_fails(self, scheme, keystore, provider, packet):
        if scheme.fmt.mac_len == 0:
            pytest.skip("unauthenticated scheme: any well-formed mark passes")
        marked = mark_through_path(scheme, keystore, provider, [4], packet)
        assert not scheme.verify_mark_as(marked, 0, 4, keystore[5], provider)

    def test_candidates_recover_marker(self, scheme, keystore, provider, packet):
        marked = mark_through_path(scheme, keystore, provider, [4], packet)
        candidates = scheme.candidate_marker_ids(marked, 0, keystore, provider)
        assert 4 in candidates

    def test_full_path_all_marks_verify(self, scheme, keystore, provider, packet):
        path = [1, 2, 3, 4, 5]
        marked = mark_through_path(scheme, keystore, provider, path, packet)
        assert marked.num_marks == 5
        for idx, node in enumerate(path):
            assert scheme.verify_mark_as(
                marked, idx, node, keystore[node], provider
            ), f"mark {idx} by node {node} should verify"

    def test_mark_matches_declared_format(self, scheme, keystore, provider, packet):
        marked = mark_through_path(scheme, keystore, provider, [7], packet)
        assert marked.marks[0].matches_format(scheme.fmt)

    def test_zero_prob_never_marks(self, scheme, keystore, provider, packet):
        if scheme.mark_prob == 0:
            pytest.skip("null scheme")
        import copy

        lazy = copy.copy(scheme)
        lazy.mark_prob = 0.0
        out = lazy.on_forward(ctx_for(3, keystore, provider), packet)
        assert out.num_marks == 0

    def test_probabilistic_marking_rate(self, scheme, keystore, provider, packet):
        import copy

        half = copy.copy(scheme)
        half.mark_prob = 0.5
        ctx = ctx_for(3, keystore, provider)
        marks = sum(
            half.on_forward(ctx, packet).num_marks for _ in range(2000)
        )
        assert 850 < marks < 1150  # ~1000 expected


class TestNoMarking:
    def test_never_marks(self, keystore, provider, packet):
        scheme = scheme_by_name("none")
        out = mark_through_path(scheme, keystore, provider, [1, 2, 3], packet)
        assert out.num_marks == 0


#: Every registered scheme, each with some packets it marks and some it
#: does not where its marking probability is free.
RUN_SCHEME_KWARGS = {
    "none": {},
    "ppm": {"mark_prob": 0.5},
    "ams": {"mark_prob": 0.5},
    "nested": {},
    "partial-nested": {},
    "naive-pnm": {"mark_prob": 0.5},
    "pnm": {"mark_prob": 0.5},
    "algebraic": {},
}


def test_run_schemes_cover_the_registry():
    assert set(RUN_SCHEME_KWARGS) == set(SCHEME_CLASSES)


@pytest.mark.parametrize("name", sorted(RUN_SCHEME_KWARGS))
class TestForwardRun:
    def test_on_forward_is_a_run_of_one(self, name, keystore, provider, packet):
        """Same packet, same change list, same draws, hop after hop."""
        scheme = scheme_by_name(name, **RUN_SCHEME_KWARGS[name])
        for node_id in range(1, 13):
            one = ctx_for(node_id, keystore, provider)
            run = ctx_for(node_id, keystore, provider)
            out = scheme.on_forward(one, packet)
            ran, changes = scheme.forward_run((run,), packet)
            assert ran == out
            assert one.rng.getstate() == run.rng.getstate()
            assert changes == ([] if out is packet else [(0, out.wire_len)])
            packet = out

    def test_run_matches_hop_by_hop(self, name, keystore, provider, packet):
        scheme = scheme_by_name(name, **RUN_SCHEME_KWARGS[name])
        path = list(range(1, 13))
        hops = [ctx_for(node_id, keystore, provider) for node_id in path]
        want, want_changes = packet, []
        for position, ctx in enumerate(hops):
            sent = scheme.on_forward(ctx, want)
            if sent is not want:
                want_changes.append((position, sent.wire_len))
            want = sent
        runs = [ctx_for(node_id, keystore, provider) for node_id in path]
        got, changes = scheme.forward_run(runs, packet)
        assert got == want
        assert changes == want_changes
        assert [c.rng.getstate() for c in runs] == [c.rng.getstate() for c in hops]
