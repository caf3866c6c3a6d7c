"""Hypothesis strategies shared by the oracle-equivalence tests."""

from hypothesis import strategies as st

from schemelab.schemes import AtomicSignedMeasure, CutoffScheme, make_function


@st.composite
def tabulated(draw, low, high):
    """An even cut-off sampled on x >= 0 (extended by |x| and the edge)."""
    xs = (0.0, 0.5, 1.0, 2.0, 4.0)
    ys = tuple(draw(st.floats(low, high)) for _ in xs)
    return make_function("tabulated", xs=xs, ys=ys)


@st.composite
def schemes(draw):
    """(f, mu, h) with tabulated even f >= 1/2, tabulated even h and a
    three-atom mu of zero mass and unit first moment."""
    z0, z1, z2 = draw(st.lists(st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5,
                                                1.0, 1.5, 2.0]),
                               min_size=3, max_size=3, unique=True))
    w0 = draw(st.floats(-1.0, 1.0))
    w1 = (1.0 - w0 * (z0 - z2)) / (z1 - z2)
    w2 = -w0 - w1
    return CutoffScheme(f=draw(tabulated(0.5, 2.0)),
                        mu=AtomicSignedMeasure([(z0, w0), (z1, w1), (z2, w2)]),
                        h=draw(tabulated(0.0, 1.5)))
