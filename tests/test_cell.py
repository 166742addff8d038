import numpy as np
import pytest

from homog.cell import (
    CorrectorSet,
    homogenized_tensor,
    solve_correctors,
    unit_cell_mesh,
)
from homog.coeff import (
    Checkerboard,
    Constant,
    GridTable,
    Laminate,
    ScalarCosine,
    symmetric_part_eiglimits,
    validate_ellipticity,
)
from homog.grid import integrate_field

SQRT3 = np.sqrt(3.0)


def composite_gauss(fn, a, b, n_panels=2048, n_gauss=5):
    """High-accuracy quadrature oracle, independent of the FEM machinery."""
    nodes, weights = np.polynomial.legendre.leggauss(n_gauss)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = (mid[:, None] + half * nodes[None, :]).ravel()
    vals = fn(pts).reshape(n_panels, n_gauss)
    return float(half * np.sum(vals @ weights))


def cosine_a(y):
    return 2.0 + np.cos(2.0 * np.pi * y)


def closed_form_chi_1d(nodes):
    """chi with chi'(y) = abar/a(y) - 1, zero mean, for a = 2 + cos(2 pi y)."""
    abar = SQRT3
    vals = np.array(
        [composite_gauss(lambda t: abar / cosine_a(t) - 1.0, 0.0, y) for y in nodes]
    )
    mean = composite_gauss(
        lambda y: np.array(
            [composite_gauss(lambda t: abar / cosine_a(t) - 1.0, 0.0, yy, 256) for yy in y]
        ),
        0.0,
        1.0,
        64,
    )
    return vals - mean


def test_constant_coefficient_correctors_vanish():
    field = Constant(((2.0, 0.4), (0.4, 1.0)))
    cs = solve_correctors(field, unit_cell_mesh(2, 16))
    for chi in cs.chi:
        assert np.abs(chi.values).max() <= 1e-10
    tensor = homogenized_tensor(field, cs)
    np.testing.assert_allclose(tensor.matrix, [[2.0, 0.4], [0.4, 1.0]], atol=1e-12)


def test_1d_cosine_corrector_closed_form():
    mesh = unit_cell_mesh(1, 256)
    field = ScalarCosine(2.0, 1.0, axis=0, ndim=1)
    cs = solve_correctors(field, mesh)
    nodes = mesh.node_coordinates()[:, 0]
    exact = closed_form_chi_1d(nodes)
    assert np.abs(cs.chi[0].values - exact).max() <= 1e-5


def test_1d_cosine_tensor_harmonic_mean():
    field = ScalarCosine(2.0, 1.0, axis=0, ndim=1)
    cs = solve_correctors(field, unit_cell_mesh(1, 512))
    tensor = homogenized_tensor(field, cs)
    assert tensor.matrix[0, 0] == pytest.approx(SQRT3, abs=5e-6)


def test_2d_laminate_correctors_and_tensor():
    field = Laminate(axis=0, alpha=1.0, beta=4.0, fraction=0.5)
    mesh = unit_cell_mesh(2, 64)
    cs = solve_correctors(field, mesh)
    # transverse corrector vanishes; longitudinal one is constant across axis 1
    assert np.abs(cs.chi[1].values).max() <= 1e-10
    grid = cs.chi[0].values.reshape(65, 65)  # [i1, i0]
    assert np.abs(grid - grid[0]).max() <= 1e-9
    tensor = homogenized_tensor(field, cs)
    np.testing.assert_allclose(tensor.matrix, np.diag([1.6, 2.5]), atol=1e-8)


def test_checkerboard_tensor_geometric_mean():
    field = Checkerboard(1.0, 4.0)
    errs = []
    for div in (32, 64):
        cs = solve_correctors(field, unit_cell_mesh(2, div))
        tensor = homogenized_tensor(field, cs)
        errs.append(np.abs(tensor.matrix - 2.0 * np.eye(2)).max())
    assert errs[1] < errs[0]
    assert errs[1] <= 0.06


def test_zero_mean_invariant():
    field = ScalarCosine(2.0, 1.0, axis=1)
    cs = solve_correctors(field, unit_cell_mesh(2, 32))
    for chi in cs.chi + cs.chi_adjoint:
        assert abs(integrate_field(chi)) <= 1e-10


def test_corrector_periodicity_exact():
    field = ScalarCosine(2.0, 1.0, axis=0)
    cs = solve_correctors(field, unit_cell_mesh(2, 16))
    for chi in cs.chi:
        grid = chi.values.reshape(17, 17)  # [i1, i0]
        np.testing.assert_array_equal(grid[:, 0], grid[:, 16])
        np.testing.assert_array_equal(grid[0, :], grid[16, :])


def test_energy_identity_and_first_order_form():
    field = ScalarCosine(2.0, 1.0, axis=0)
    mesh = unit_cell_mesh(2, 64)
    cs = solve_correctors(field, mesh)
    tensor = homogenized_tensor(field, cs)

    # equivalent single-corrector form: A_ij = integral of e_i . A (e_j + grad chi_j)
    from homog.grid import element_blocks

    (block,) = element_blocks(mesh)
    rule = block.rule
    elems = mesh.active_elements()
    pts = mesh.element_origin(elems)[:, None, :] + rule.points[None, :, :] * mesh.h
    a = field.sample_batch(pts.reshape(-1, 2)).reshape(len(elems), 4, 2, 2)
    vol = float(np.prod(mesh.h))
    first_order = np.zeros((2, 2))
    for j in range(2):
        g = block.gradients(cs.chi[j].values)
        g[:, :, j] += 1.0
        first_order[:, j] = vol * np.einsum("eqkl,eql,q->k", a, g, rule.weights)
    np.testing.assert_allclose(tensor.matrix, first_order, atol=1e-8)

    # diagonal energy identity holds by construction of the formula
    for i in range(2):
        g = block.gradients(cs.chi[i].values)
        g[:, :, i] += 1.0
        energy = vol * np.einsum("eqk,eqkl,eql,q->", g, a, g, rule.weights)
        assert tensor.matrix[i, i] == pytest.approx(energy, abs=1e-10)


def test_ellipticity_preserved():
    field = Laminate(axis=1, alpha=1.0, beta=4.0, fraction=0.25)
    c, big = validate_ellipticity(field)
    cs = solve_correctors(field, unit_cell_mesh(2, 32))
    tensor = homogenized_tensor(field, cs)
    sym = 0.5 * (tensor.matrix + tensor.matrix.T)
    lo, hi = symmetric_part_eiglimits(sym[None, :, :])
    assert lo >= c - 1e-8
    assert hi <= big + 1e-8


def test_adjoint_equals_corrector_for_symmetric():
    field = ScalarCosine(2.0, 1.0, axis=0)
    cs = solve_correctors(field, unit_cell_mesh(2, 16))
    for a, b in zip(cs.chi, cs.chi_adjoint):
        assert np.array_equal(a.values, b.values)


def nonsym_field():
    # skew part must vary across Y: a constant skew has no periodic effect
    vals = np.zeros((2, 2, 2, 2))
    base = [1.5, 2.5, 3.0, 2.0]
    for idx, (i, j) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        vals[i, j] = np.eye(2) * base[idx]
        vals[i, j, 0, 1] = 0.1 + 0.4 * i
        vals[i, j, 1, 0] = 0.05 + 0.3 * j
    return GridTable(vals)


def test_nonsymmetric_adjoint_and_duality():
    field = nonsym_field()
    mesh = unit_cell_mesh(2, 32)
    cs = solve_correctors(field, mesh)
    diff = max(np.abs(a.values - b.values).max() for a, b in zip(cs.chi, cs.chi_adjoint))
    assert diff > 1e-4  # adjoints genuinely differ for non-symmetric A
    tensor = homogenized_tensor(field, cs)
    assert abs(tensor.matrix[0, 1] - tensor.matrix[1, 0]) > 1e-4

    # duality: the tensor of the transposed field is the transposed tensor
    cs_t = solve_correctors(field.transposed(), mesh)
    tensor_t = homogenized_tensor(field.transposed(), cs_t)
    np.testing.assert_allclose(tensor_t.matrix, tensor.matrix.T, atol=1e-8)
    # and the adjoint correctors of A are the correctors of A^T
    for a, b in zip(cs.chi_adjoint, cs_t.chi):
        assert np.abs(a.values - b.values).max() <= 1e-7


@pytest.mark.parametrize("s", [1.0, 2.0, 4.0])
def test_skew_checkerboard_tensor_and_duality(s):
    # blocks I + sJ and I - sJ: the skew part is as large as the symmetric
    # part or larger, and the exact effective tensor is sqrt(1 + s^2) I
    block, flipped = [[1.0, s], [-s, 1.0]], [[1.0, -s], [s, 1.0]]
    field = GridTable(np.array([[block, flipped], [flipped, block]]))
    mesh = unit_cell_mesh(2, 64)
    tensor = homogenized_tensor(field, solve_correctors(field, mesh)).matrix
    exact = np.sqrt(1.0 + s * s)
    assert np.abs(np.diag(tensor) - exact).max() <= 1e-3 * exact
    assert max(abs(tensor[0, 1]), abs(tensor[1, 0])) <= 1e-12
    # duality, as in test_nonsymmetric_adjoint_and_duality: A*(A^T) = A*(A)^T
    transposed = field.transposed()
    tensor_t = homogenized_tensor(transposed, solve_correctors(transposed, mesh)).matrix
    assert np.abs(tensor_t - tensor.T).max() <= 1e-9 * np.abs(tensor).max()


def test_mesh_convergence_monotone():
    field = ScalarCosine(2.0, 1.0, axis=0)
    tensors = {}
    for div in (16, 32, 64, 128):
        cs = solve_correctors(field, unit_cell_mesh(2, div))
        tensors[div] = homogenized_tensor(field, cs).matrix
    gaps = [np.abs(tensors[d] - tensors[2 * d]).max() for d in (16, 32, 64)]
    assert gaps[0] > gaps[1] > gaps[2]


class _DeclaredSymmetric(ScalarCosine):
    """Claims the default ``symmetric`` but samples a skew part."""

    def sample_batch(self, y):
        a = super().sample_batch(y)
        a[:, 0, 1] += 0.5
        return a


def test_declared_symmetric_field_with_skew_samples_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        solve_correctors(_DeclaredSymmetric(2.0, 1.0), unit_cell_mesh(2, 8))
