"""Marking schemes.

Eight schemes span the paper's design space, from the null baseline to
full PNM:

===================  =====  ===========  ==============  ==============
Scheme               Marks  ID on wire   MAC covers      Paper role
===================  =====  ===========  ==============  ==============
``NoMarking``        never  --           --              null baseline
``PPMMarking``       p      plain        nothing         Internet PPM baseline
``ExtendedAMS``      p      plain        report + ID     Section 3 baseline
``NestedMarking``    1.0    plain        whole prefix    Section 4.1
``NaiveProb...``     p      plain        whole prefix    Section 4.2 strawman
``PartiallyNe...``   1.0    plain        report + IDs    Theorem 3 counterexample
``PNMMarking``       p      anonymous    whole prefix    the paper's scheme
``AlgebraicMark...`` 1.0    accumulator  report + accum  dynamic-network ext.
===================  =====  ===========  ==============  ==============

The six plain-ID schemes derive from
:class:`~repro.marking.base.PlainIdMarking`, which builds, resolves and
checks their marks; each states only what its MAC covers, in ``_covered``.
``PNMMarking`` resolves anonymous IDs and fuses its per-packet check.
``AlgebraicMarking`` (the arXiv:0908.0078 extension, see
:mod:`repro.algebraic`) is the odd one out: it *replaces* a single
constant-size accumulator per hop instead of appending, so its sink side
is stateful across topology changes.
"""

from repro.algebraic.marking import AlgebraicMarking
from repro.marking.ams import ExtendedAMS
from repro.marking.base import MarkingScheme, NodeContext
from repro.marking.nested import NaiveProbabilisticNested, NestedMarking
from repro.marking.plain import NoMarking, PPMMarking
from repro.marking.pnm import PNMMarking
from repro.marking.weakened import PartiallyNestedMarking

__all__ = [
    "MarkingScheme",
    "NodeContext",
    "NoMarking",
    "PPMMarking",
    "ExtendedAMS",
    "NestedMarking",
    "NaiveProbabilisticNested",
    "PNMMarking",
    "PartiallyNestedMarking",
    "AlgebraicMarking",
    "scheme_by_name",
    "SCHEME_CLASSES",
]

#: Registry of scheme classes keyed by their short names.
SCHEME_CLASSES: dict[str, type[MarkingScheme]] = {
    cls.name: cls
    for cls in (
        NoMarking,
        PPMMarking,
        ExtendedAMS,
        NestedMarking,
        NaiveProbabilisticNested,
        PNMMarking,
        PartiallyNestedMarking,
        AlgebraicMarking,
    )
}


def scheme_by_name(name: str, **kwargs) -> MarkingScheme:
    """Instantiate a scheme from its registry name.

    Args:
        name: one of ``none``, ``ppm``, ``ams``, ``nested``, ``naive-pnm``,
            ``pnm``, ``partial-nested``, ``algebraic``.
        **kwargs: forwarded to the scheme constructor (e.g. ``mark_prob``).

    Raises:
        KeyError: for an unknown scheme name.
    """
    try:
        cls = SCHEME_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(SCHEME_CLASSES))
        raise KeyError(f"unknown scheme {name!r}; known schemes: {known}") from None
    return cls(**kwargs)
