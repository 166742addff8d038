import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homog.coeff import (
    Checkerboard,
    Constant,
    EllipticityError,
    GridTable,
    Laminate,
    ScalarCosine,
    fractional_part,
    from_config,
    sample,
    validate_ellipticity,
)


def test_constant_periodic_sampling():
    field = Constant(((1.0, 0.0), (0.0, 1.0)))
    np.testing.assert_array_equal(sample(field, (7.3, -2.1)), np.eye(2))


def test_laminate_values():
    field = Laminate(axis=0, alpha=1.0, beta=4.0, fraction=0.5)
    np.testing.assert_array_equal(sample(field, (0.25, 0.9)), np.eye(2))
    np.testing.assert_array_equal(sample(field, (0.75, 0.1)), 4.0 * np.eye(2))


def test_scalar_cosine_value():
    field = ScalarCosine(2.0, 1.0, axis=0)
    np.testing.assert_allclose(sample(field, (0.5, 0.0)), np.eye(2), atol=1e-15)


def test_checkerboard_pattern():
    field = Checkerboard(1.0, 4.0)
    assert sample(field, (0.25, 0.25))[0, 0] == 1.0
    assert sample(field, (0.75, 0.25))[0, 0] == 4.0
    assert sample(field, (0.75, 0.75))[0, 0] == 1.0


def _closed_form_checkerboard(alpha, beta, y):
    """The checkerboard's own closed form: alpha I where the 2x2 cell
    indices min(floor(2 frac(y)), 1) add up to an even number, else beta I."""
    cells = np.minimum(np.floor(2.0 * fractional_part(y)).astype(int), 1)
    even = (cells[:, 0] + cells[:, 1]) % 2 == 0
    out = np.zeros((len(y), 2, 2))
    for d in range(2):
        out[:, d, d] = np.where(even, alpha, beta)
    return out


def test_checkerboard_is_the_2x2_grid_table_bitwise_its_closed_form():
    field = Checkerboard(1.0, 4.0)
    assert isinstance(field, GridTable) and field.k == 2
    rng = np.random.default_rng(3)
    # random points, and points on the cell boundaries k/2 of several periods
    halves = np.arange(-6, 7) / 2.0
    edges = np.stack(np.meshgrid(halves, halves), axis=-1).reshape(-1, 2)
    mixed = np.stack([halves, rng.uniform(-3, 3, len(halves))], axis=1)
    for y in (rng.uniform(-3, 3, (4096, 2)), edges, mixed, mixed[:, ::-1]):
        got = field.sample_batch(y)
        want = _closed_form_checkerboard(1.0, 4.0, y)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(got, np.swapaxes(got, 1, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_validate_refuses_a_non_finite_sample(bad, entry):
    # NaN fails every comparison, so only a finiteness test can catch it
    vals = np.tile(np.eye(2), (4, 4, 1, 1))
    vals[(1, 2) + entry] = bad
    with pytest.raises(EllipticityError, match="non-finite"):
        validate_ellipticity(GridTable(vals))


def test_grid_table_lookup_and_symmetry_flag():
    vals = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            vals[i, j] = np.eye(2) * (1 + i + 2 * j)
    vals[0, 0, 0, 1] = 0.3
    vals[0, 0, 1, 0] = 0.1
    field = GridTable(vals)
    np.testing.assert_array_equal(sample(field, (0.9, 0.1)), 2.0 * np.eye(2))
    a = sample(field, (0.1, 0.1))
    assert a[0, 1] == 0.3 and a[1, 0] == 0.1


def test_validate_rejects_indefinite_constant():
    with pytest.raises(EllipticityError):
        validate_ellipticity(Constant(((1.0, 2.0), (2.0, 1.0))))


def test_validate_cosine_range():
    c, big = validate_ellipticity(ScalarCosine(2.0, 1.0, axis=0), samples_per_axis=512)
    assert c == pytest.approx(1.0, abs=1e-3)
    assert big == pytest.approx(3.0, abs=1e-3)


def test_validate_laminate_range():
    c, big = validate_ellipticity(Laminate(0, 1.0, 4.0, 0.5))
    assert (c, big) == (1.0, 4.0)


@settings(max_examples=80, deadline=None)
@given(
    num=st.integers(0, 2**12 - 1),
    num2=st.integers(0, 2**12 - 1),
    k0=st.integers(-8, 8),
    k1=st.integers(-8, 8),
    which=st.integers(0, 3),
)
def test_periodicity_exact_on_dyadics(num, num2, k0, k1, which):
    # dyadic coordinates plus small integer offsets stay exact in binary
    fields = [
        Laminate(0, 1.0, 4.0, 0.5),
        Checkerboard(1.0, 4.0),
        ScalarCosine(2.0, 1.0, 0),
        Constant(((2.0, 0.5), (0.5, 1.0))),
    ]
    field = fields[which]
    y = np.array([num / 2**12, num2 / 2**12])
    np.testing.assert_array_equal(sample(field, y), sample(field, y + np.array([k0, k1])))


def test_symmetric_kinds_exactly_symmetric():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, size=(64, 2))
    for field in [Laminate(1, 1.0, 4.0, 0.25), Checkerboard(1.0, 4.0), ScalarCosine(2.0, 1.0, 1)]:
        a = field.sample_batch(pts)
        np.testing.assert_array_equal(a, np.swapaxes(a, 1, 2))


def test_transposed_field():
    vals = np.tile(np.array([[2.0, 0.3], [0.1, 1.5]]), (2, 2, 1, 1))
    field = GridTable(vals)
    t = field.transposed()
    np.testing.assert_array_equal(sample(t, (0.1, 0.2)), sample(field, (0.1, 0.2)).T)
    sym = ScalarCosine(2.0, 1.0, 0)
    pts = np.random.default_rng(1).uniform(-3, 3, (64, 2))
    assert sym.transposed().sample_batch(pts).tobytes() == sym.sample_batch(pts).tobytes()


_EDGE_POINTS = [-3.0, -1.0, -1e-20, 0.0, 1e-20, 1.0, 2.0]


@pytest.mark.parametrize("matrix", [((2.5,),), ((2.0, 0.3), (0.1, 1.5))])
def test_constant_is_the_one_cell_table_bitwise_a_broadcast(matrix):
    field = Constant(matrix)
    a = np.asarray(matrix)
    n = len(a)
    assert isinstance(field, GridTable) and field.k == 1 and field.dim == n
    rng = np.random.default_rng(5)
    edges = np.stack(np.meshgrid(*[_EDGE_POINTS] * n), axis=-1).reshape(-1, n)
    for y in (rng.uniform(-3, 3, (512, n)), edges):
        got = field.sample_batch(y)
        want = np.broadcast_to(a, (len(y), n, n))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_grid_table_refuses_a_malformed_shape():
    for values in (np.ones((2, 3, 2, 2)), np.ones((2, 2, 1, 1)), np.ones((2, 2, 2)),
                   np.ones((1, 1, 1, 3, 3)), 1.0):
        with pytest.raises(ValueError, match="grid_table"):
            GridTable(values)


_SPECS = [
    {"kind": "constant", "matrix": [[2.0, 0.3], [0.3, 1.4]]},
    {"kind": "constant", "matrix": [[2.0]], "dim": 1},
    {"kind": "laminate", "axis": 1, "alpha": 1.0, "beta": 4.0, "fraction": 0.25},
    {"kind": "checkerboard", "alpha": 1.0, "beta": 4.0},
    {"kind": "scalar_cosine", "a0": 2.0, "a1": 1.0, "dim": 1},
    {"kind": "grid_table", "values": np.tile(np.array([[2.0, 0.3], [0.1, 1.5]]), (3, 3, 1, 1)).tolist()},
]


@pytest.mark.parametrize("spec", _SPECS, ids=[s["kind"] for s in _SPECS])
def test_every_config_kind_hashes_and_equal_fields_hash_equal(spec):
    field, again = from_config(spec), from_config(spec)
    assert field == again and hash(field) == hash(again)
    assert field.transposed() == again.transposed()
    assert hash(field.transposed()) == hash(again.transposed())
