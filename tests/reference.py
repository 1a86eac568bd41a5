"""What the tests share: constructions, test-only checkers, second routes
and rounding bounds.

Every test file takes these from here and never from another test file;
tests/test_exports.py::test_no_test_file_imports_another keeps it so. The
module defines no test, and pytest does not collect it.

- Constructions: seeded draws, C[S4], tensor products, complex transports
  of the catalog, one iterator over the catalog's pairs, and a group with
  a wrong Haar state.
- Checkers that only tests call: automorphisms, weighted L^p spaces, norm
  transport and Hoelder.
- Second routes, each the plain form of what the package computes: the
  einsum axioms, the per-block Wedderburn decomposition, W solved against
  the doubled Gram form and the operator certificates it feeds, the
  regular representation's norms, the eigen route of the L^p kernel,
  the per-choice Macaulay solver, the per-element structures
  certificates and the sharpness ascent before its step objectives.
- The rounding bound that the implementation pins derive from eps, and
  the call counters that tests patch in.
"""

import functools
import itertools
import math
import sys

import numpy as np

from qgharm import lp, sharpness
from qgharm.catalog import EXAMPLE_NAMES, get_example
from qgharm.convolution import convolve
from qgharm.core import (BLOCK_SEED, Blocks, CayleyTable, FiniteQuantumGroup,
                         _maxabs, _on_two_legs, _real_if_exact)
from qgharm.duality import build_dual, dual_fourier, fourier_coeffs
from qgharm.errors import QgharmError
from qgharm.lp import (SLACK, WeightedLpSpace, base_space, conjugate_exponent,
                       lp_norm)
from qgharm.report import Check, check
from qgharm.structures import (MAX_DEGREE, RANK_TOL, ROOT_TOL, STETTER_SEED,
                               TRIVIAL_NOTE, _Enumeration, _fourier_blocks,
                               _group_like_relation, _monomials,
                               _require_group_like, _right_mult, _shifted,
                               range_projection_of_fourier)

INF = float("inf")
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# draws, rounding bounds and call counts
# ---------------------------------------------------------------------------

def _random(shape, seed):
    """Standard complex normal entries: the real parts, then the imaginary
    parts, from np.random.default_rng(seed). A Generator as seed is drawn
    from and advances."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _gamma(k):
    """gamma_k = k eps / (1 - k eps), the bound on the relative rounding
    error of a chain of k floating-point operations (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 3.1, with eps in
    place of the unit roundoff eps / 2, so that it also bounds the gap
    between two routes that each round within Higham's gamma_k). Every
    implementation pin that holds a new route to an old one within a
    rounding bound takes it from here."""
    return k * EPS / (1 - k * EPS)


def _counting(monkeypatch, owner, name):
    """Patch owner.name to record the first argument of every call in
    the returned list, and then run as before."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def _calls_to(function, thunk):
    """thunk's result and the locals, at entry, of every call to the
    pure-Python function while thunk runs, counted by code object so that
    calls through every imported name count."""
    code = function.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(dict(frame.f_locals))
    sys.setprofile(profile)
    try:
        value = thunk()
    finally:
        sys.setprofile(None)
    return value, calls


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

TENSORS = ("mult", "unit", "comult", "counit", "antipode", "star", "haar")


def _wrong_haar():
    """z3-function with the counit, which is not invariant, in place of
    its Haar state."""
    g = get_example("z3-function")
    fields = {k: getattr(g, k) for k in TENSORS}
    return FiniteQuantumGroup(**{**fields, "haar": g.counit})


def _s4_table():
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    return CayleyTable(table=tuple(
        tuple(index[tuple(p[q[x]] for x in range(4))] for q in perms)
        for p in perms)).validate()


def _kron_group(a, b):
    """The tensor product quantum group of a and b, on the basis
    e_i x f_p at index i * b.dim + p."""
    n = a.dim * b.dim

    def both(x, y):
        return np.einsum("ijk,pqr->ipjqkr", x, y).reshape(n * n, n)

    return FiniteQuantumGroup(
        mult=both(a.mult, b.mult).reshape(n, n, n),
        unit=np.kron(a.unit, b.unit),
        comult=both(a.comult.reshape(a.dim, a.dim, a.dim),
                    b.comult.reshape(b.dim, b.dim, b.dim)),
        counit=np.kron(a.counit, b.counit),
        antipode=np.kron(a.antipode, b.antipode),
        star=np.kron(a.star, b.star), haar=np.kron(a.haar, b.haar),
        name=f"{a.name} x {b.name}")


@functools.cache
def _transported(g, seed):
    """g in the basis f_i = sum_j T[j, i] e_j, T = unitary . diag(1 + 0.2u).

    On the catalog S and the star are real and commute; here they are
    complex and do not, so formulas that only agree on the catalog differ.
    Built once per (g, seed): a FiniteQuantumGroup is frozen and read-only
    and hashes by identity, so the copy and its cached blocks and dual are
    shared by every test.
    """
    rng = np.random.default_rng(seed)
    n = g.dim
    t = np.linalg.qr(_random((n, n), rng))[0] @ np.diag(1.0 + 0.2 * rng.uniform(size=n))
    ti = np.linalg.inv(t)
    mult = np.einsum("ai,bj,abc,kc->ijk", t, t, g.mult, ti)
    comult = np.einsum("ia,jb,abc,ck->ijk", ti, ti, g.comult3, t)
    return FiniteQuantumGroup(
        mult=mult, unit=ti @ g.unit, comult=comult.reshape(n * n, n),
        counit=g.counit @ t, antipode=ti @ g.antipode @ t,
        star=ti @ g.star @ np.conj(t), haar=g.haar @ t,
        name=f"{g.name}-transported")


def catalog_pairs(transports=False, duals=False):
    """The dual pair of every catalog example, in EXAMPLE_NAMES order. With
    transports, each example's pair is followed by that of its seed-7
    transport; with duals, each pair by the pair of its dual."""
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        for h in (g, _transported(g, seed=7)) if transports else (g,):
            pair = build_dual(h)
            yield pair
            if duals:
                yield build_dual(pair.dual_qg)


# ---------------------------------------------------------------------------
# checkers that only tests call
# ---------------------------------------------------------------------------

AUTOMORPHISM_TOL = 1e-10


def is_automorphism(g: FiniteQuantumGroup, alpha: np.ndarray) -> bool:
    """True when alpha preserves multiplication, the unit, and the star."""
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (g.dim, g.dim):
        raise QgharmError(f"expected {(g.dim, g.dim)}, got {alpha.shape}")
    if abs(np.linalg.det(alpha)) < 1e-12:
        return False
    residuals = (g.mult @ alpha.T - _on_two_legs(alpha.T, g.mult),
                 alpha @ g.unit - g.unit,
                 alpha @ g.star - g.star @ np.conj(alpha))
    return all(_maxabs(r) <= AUTOMORPHISM_TOL for r in residuals)


def weighted_space(g: FiniteQuantumGroup, weight) -> WeightedLpSpace:
    """L^p space over g for an arbitrary tracial positive weight vector."""
    w = np.asarray(weight, dtype=complex).reshape(-1)
    if w.shape != (g.dim,):
        raise QgharmError(f"expected {g.dim} weight values, got {w.shape}")
    blocks = g.blocks
    c = blocks.weights(w)
    gap = float(np.max(np.abs(blocks.trace_form(c) - w)))
    if gap > 1e-9 * max(float(np.max(np.abs(w))), 1.0):
        raise QgharmError(f"weight is not tracial: residual {gap:.3e}")
    return WeightedLpSpace(algebra=g, eigen_weights=np.repeat(c, blocks.sizes))


def norm_transport_check(g: FiniteQuantumGroup, alpha: np.ndarray, x, p) -> Check:
    """||x||_{p, phi} equals ||alpha(x)||_{p, phi o alpha^{-1}}."""
    if not is_automorphism(g, alpha):
        raise QgharmError("alpha does not preserve the algebra structure")
    alpha = np.asarray(alpha, dtype=complex)
    alpha_inv = np.linalg.inv(alpha)
    moved_weight = g.haar @ alpha_inv
    sp = base_space(g)
    sp_moved = weighted_space(g, moved_weight)
    xc = g.coeffs_of(x)
    lhs = lp_norm(sp, xc, p)
    rhs = lp_norm(sp_moved, alpha @ xc, p)
    return check("norm-transport", "automorphism-invariant-norm",
                 {"relative_gap": abs(lhs - rhs) / max(lhs, 1e-300)}, SLACK,
                 lhs=lhs, rhs=rhs, p=float(p), example=g.name)


def holder_check(g: FiniteQuantumGroup, x, y, p) -> Check:
    """|phi(x* y)| <= ||x||_p ||y||_{p'} sanity bound for the norms."""
    sp = base_space(g)
    pc = conjugate_exponent(p)
    xc, yc = g.coeffs_of(x), g.coeffs_of(y)
    pairing = abs(complex(xc.conj() @ g.gram @ yc))
    bound = lp_norm(sp, xc, p) * lp_norm(sp, yc, pc)
    return lp._bound("hoelder", "pairing-norm-bound",
                     (pairing, bound, lp._ratio(pairing, bound)), p=float(p))


# ---------------------------------------------------------------------------
# the axioms as einsum contractions
# ---------------------------------------------------------------------------

def _einsum_axioms(g):
    """verify_axioms written as the einsum contractions of each law."""
    n = g.dim
    m, c3 = g.mult, g.comult.reshape(n, n, n)
    eye = np.eye(n)
    mx = lambda a: float(np.max(np.abs(a)))
    res = {
        "associativity": mx(np.einsum("ijl,lkm->ijkm", m, m)
                            - np.einsum("jkl,ilm->ijkm", m, m)),
        "unit": max(mx(np.einsum("ijk,i->jk", m, g.unit) - eye),
                    mx(np.einsum("ijk,j->ik", m, g.unit) - eye)),
        "coassociativity": mx(np.einsum("abi,ijk->abjk", c3, c3)
                              - np.einsum("aik,bci->abck", c3, c3)),
        "counit": max(mx(np.einsum("abk,a->bk", c3, g.counit) - eye),
                      mx(np.einsum("abk,b->ak", c3, g.counit) - eye)),
        "delta_unital": mx(np.einsum("abk,k->ab", c3, g.unit)
                           - np.outer(g.unit, g.unit)),
        "delta_homomorphism": mx(
            np.einsum("abi,cdj,acp,bdq->pqij", c3, c3, m, m)
            - np.einsum("pqk,ijk->pqij", c3, m)),
        "delta_star_compatibility": mx(
            np.einsum("abk,kl->abl", c3, g.star)
            - np.einsum("ap,bq,pql->abl", g.star, g.star, np.conj(c3))),
        "antipode": max(
            mx(np.einsum("abk,pa,pbq->qk", c3, g.antipode, m)
               - np.outer(g.unit, g.counit)),
            mx(np.einsum("abk,pb,apq->qk", c3, g.antipode, m)
               - np.outer(g.unit, g.counit))),
        "antipode_squared": mx(g.antipode @ g.antipode - eye),
        "star_involution": mx(g.star @ np.conj(g.star) - eye),
        "star_antimultiplicative": mx(
            np.einsum("ijk,lk->ijl", np.conj(m), g.star)
            - np.einsum("pj,qi,pql->ijl", g.star, g.star, m)),
        "haar_left_invariance": mx(np.einsum("abk,b->ak", c3, g.haar)
                                   - np.outer(g.unit, g.haar)),
        "haar_right_invariance": mx(np.einsum("abk,a->bk", c3, g.haar)
                                    - np.outer(g.unit, g.haar)),
        "haar_normalized": abs(complex(g.haar @ g.unit) - 1.0),
    }
    q = np.einsum("ijk,k->ij", m, g.haar)
    gram = g.star.T @ q
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    floor = 1e-8 * max(eigs[-1], 1e-300)
    res["gram_hermitian"] = mx(gram - gram.conj().T)
    res["positivity"] = max(0.0, -eigs[0])
    res["faithfulness"] = 0.0 if eigs[0] > floor else max(floor - eigs[0], floor)
    res["traciality"] = mx(q - q.T)
    return res


def _tensor_mult(g, xx, yy):
    """Product in A x A of (..., n, n) coefficient matrices over e_i x e_j,
    batched over the leading axes: the first legs multiply for every pair
    (j, l) of second-leg indices, then the second legs."""
    n = g.dim
    first = g.multiply(np.swapaxes(xx, -1, -2)[..., :, None, :],
                       np.swapaxes(yy, -1, -2)[..., None, :, :])
    return np.swapaxes(first.reshape(first.shape[:-3] + (n * n, n)),
                       -1, -2) @ g.mult.reshape(n * n, n)


def _delta_homomorphism_reference(g):
    """The delta_homomorphism residual as the _tensor_mult product of every
    pair Delta(e_i), Delta(e_j): n^4 (1 x n)(n x n) products, taken one i
    at a time, so that n = 24 needs a few MB and not a few hundred."""
    n = g.dim
    deltas = g.comult3.transpose(2, 0, 1)
    rhs = (g.mult.reshape(n * n, n) @ g.comult.T).reshape(n, n, n, n)
    return max(float(np.max(np.abs(_tensor_mult(g, deltas[i], deltas)
                                   - rhs[i]))) for i in range(n))


# ---------------------------------------------------------------------------
# the block decomposition, one block at a time
# ---------------------------------------------------------------------------

def _wedderburn_reference(g):
    """_wedderburn with a full SVD of the commutator map and one eigh and
    one representation per block."""
    n = g.dim
    rng = np.random.default_rng(BLOCK_SEED)

    def generic_self_adjoint(basis):
        k = basis.shape[1]
        z = basis @ _random(k, rng)
        return z + g.star_of(z)

    comm = (g.mult - g.mult.transpose(1, 0, 2)).reshape(n, n * n).T
    _, s, vh = np.linalg.svd(comm)
    centre = vh[int(np.sum(s > 1e-10 * np.linalg.norm(g.mult))):].conj().T
    lz = np.einsum("i,ikj->kj", generic_self_adjoint(centre), g.left_regular)
    lam, vec = np.linalg.eig(centre.conj().T @ lz @ centre)
    order = np.argsort(lam.real)
    vec = vec[:, order]
    central = ((centre @ vec)
               * np.linalg.solve(vec, centre.conj().T @ g.unit)).T
    squares = np.real(central @ np.einsum("skk->s", g.mult))
    sizes = np.rint(np.sqrt(np.clip(squares, 0.0, None))).astype(int)
    order = np.argsort(sizes, kind="stable")
    central, sizes = central[order], tuple(int(d) for d in sizes[order])

    chol = np.linalg.cholesky(0.5 * (g.gram + g.gram.conj().T))
    to_gns = np.linalg.inv(chol).conj().T
    y = generic_self_adjoint(np.eye(n))
    reps = []
    for z, d in zip(central, sizes):
        right = np.einsum("s,jsk->kj", g.multiply(z, y), g.mult)
        herm = chol.conj().T @ right @ to_gns
        w, vecs = np.linalg.eigh(0.5 * (herm + herm.conj().T))
        top = int(np.argmax(np.abs(w)))
        ideal = np.abs(w - w[top]) <= 1e-8 * abs(w[top])
        assert int(np.sum(ideal)) == d
        u = to_gns @ vecs[:, ideal]
        reps.append(np.einsum("ka,skj,jb->sab", (g.gram @ u).conj(),
                              g.left_regular, u))
    hom = max(_maxabs(np.einsum("sab,tbc->stac", r, r)
                      - np.einsum("stu,uac->stac", g.mult, r)) for r in reps)
    star = max(_maxabs(np.einsum("us,uab->sba", g.star, r).conj() - r)
               for r in reps)
    assert max(hom, star) <= 1e-10
    to_blocks = np.concatenate([r.reshape(n, -1).T for r in reps])
    return Blocks(central=central, sizes=sizes, to_blocks=to_blocks,
                  from_blocks=np.linalg.inv(to_blocks))


# ---------------------------------------------------------------------------
# the multiplicative unitary as an operator
# ---------------------------------------------------------------------------

def _dual_basis(pair):
    """The operators B_s = F(Q^{-1} e_s) on the GNS space, (n, n, n): B_s is
    sum_k S[s, k] comult3[k], the operator route to F(x) = sum_s (Qx)_s B_s
    that the package keeps in dual coefficients."""
    g = pair.base
    n = g.dim
    return (g.antipode @ g.comult3.reshape(n, n * n)).reshape(n, n, n)


def _fourier(pair, x):
    """F(x) as a matrix on the GNS space, batched over the leading axes."""
    return np.einsum("...s,sij->...ij", fourier_coeffs(pair, x),
                     _dual_basis(pair))


def _legs_of_w(g, w):
    """Second legs B_s of W = sum_s pi(e_s) . B_s, by least squares."""
    n = g.dim
    r = w.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    cols = g.left_regular.reshape(n, n * n).T
    legs, *_ = np.linalg.lstsq(cols, r, rcond=None)
    assert _maxabs(cols @ legs - r) < 1e-12
    return legs.reshape(n, n, n)


def _over_basis(basis, mats):
    """Coefficients of stacked matrices over a stacked basis; exact fit."""
    k = basis.shape[0]
    cols = basis.reshape(k, -1).T
    flat = mats.reshape(-1, cols.shape[0]).T
    sol, *_ = np.linalg.lstsq(cols, flat, rcond=None)
    assert _maxabs(cols @ sol - flat) < 1e-12
    return sol.T.reshape(mats.shape[:-2] + (k,))


def _w_star(pair):
    """W* as an (n^2, n^2) matrix [(c, b), (i, j)] from W*(a . b) =
    Delta(b)(a . 1) on basis pairs: sum_a comult3[a, b, j] mult[a, i, c].
    Real exactly when comult3 and mult are."""
    g = pair.base
    n = g.dim
    return np.tensordot(_real_if_exact(g.comult3), _real_if_exact(g.mult),
                        axes=([0], [0])).transpose(3, 0, 2, 1).reshape(
                            n * n, n * n)


def _unitary(lreg, legs):
    """W = sum_s L_s . B_s as an (n^2, n^2) matrix [(i, k), (j, l)], from
    the legs that qgharm.duality._factors returns: the closed form the
    package read before it certified W on structure tensors alone."""
    n = len(lreg)
    return (lreg.reshape(n, -1).T @ legs.reshape(n, -1)).reshape(
        n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _w_by_solve(pair):
    """W as the adjoint of W* under the doubled Gram form, by solving
    kron(G, G) W = W*^H kron(G, G): the package's route before W was read
    in closed form. It has no gate; premise (0) of qgharm.duality, that W*
    is an isometry of the doubled Gram form, makes this adjoint the
    inverse."""
    gram = _real_if_exact(pair.base.gram)
    gg = np.kron(gram, gram)
    return np.linalg.solve(gg, _w_star(pair).conj().T @ gg)


def _pentagon_reference(pair):
    """The pentagon residual leg by leg: each factor of W12 W13 W23 and
    W23 W12 multiplies the columns of the n^3 identity on two tensor legs."""
    n = pair.base.dim
    w = _w_by_solve(pair)

    def on_legs(x, legs):
        order = (*legs, 3 - sum(legs), 3)
        y = (w @ x.transpose(order).reshape(n * n, -1)).reshape(x.shape)
        return y.transpose(np.argsort(order))

    eye = np.eye(n ** 3).reshape(n, n, n, n ** 3)
    lhs = on_legs(on_legs(on_legs(eye, (1, 2)), (0, 2)), (0, 1))
    rhs = on_legs(on_legs(eye, (0, 1)), (1, 2))
    return _maxabs(lhs - rhs)


def _pentagon_by_column(pair):
    """The pentagon residual contracted through W4 = W reshaped to
    (n, n, n, n), as the package computed it before the coefficient form.
    At [(a, b, c), (A, B, C)], W23 W12 = sum_x W4[b, c, x, C] W4[a, x, A, B]
    and W13 W23 = sum_y W4[a, c, A, y] W4[b, y, B, C], which W12 then
    multiplies. Each side is formed one column leg C at a time, which W12
    does not touch: n^7 work, where _pentagon_reference takes n^8."""
    n = pair.base.dim
    w = _w_by_solve(pair)
    w4 = w.reshape(n, n, n, n)
    worst = 0.0
    for col in range(n):
        rhs = np.tensordot(w4[..., col], w4, axes=([2], [1]))
        mid = np.tensordot(w4, w4[..., col], axes=([3], [1]))
        lhs = w @ mid.transpose(0, 3, 1, 2, 4).reshape(n * n, -1)
        worst = max(worst, _maxabs(lhs.reshape(mid.shape)
                                   - rhs.transpose(2, 0, 1, 3, 4)))
    return worst


def _conjugation_reference(pair):
    """The residual of Delta(x) = W*(1 . x)W over the operator basis, as
    n^2 x n^2 operators: W*(1 . L_k)W against sum_{i, j} comult3[i, j, k]
    L_i . L_j."""
    g = pair.base
    n = g.dim
    lreg = _real_if_exact(g.left_regular)
    w3 = _w_by_solve(pair).reshape(n, n, n * n)
    lhs = _w_star(pair) @ (lreg[:, None] @ w3).reshape(n, n * n, n * n)
    # [k, a, b, c, d] = sum_{i, j} comult3[i, j, k] L_i[a, b] L_j[c, d]
    rhs = np.tensordot(np.tensordot(_real_if_exact(g.comult3), lreg,
                                    axes=([0], [0])), lreg, axes=([0], [0]))
    rhs = rhs.transpose(0, 1, 3, 2, 4).reshape(n, n * n, n * n)
    return _maxabs(lhs - rhs)


def _operator_bound(pair):
    """How far the pentagon and conjugation residuals of two routes may
    differ. On exact tensors both read 0, so each is a rounding error. An
    entry of W12 W13 W23 - W23 W12 is a chain of three products of inner
    length n^2 whose absolute values are at most ||W||_inf^3 (the max row
    sum of |W|, at least 1), so the operator route is within
    gamma_{3 n^2} ||W||_inf^3. The coefficient form's products are no
    longer, over the same tensors; it is held to the same bound as a pin,
    not by a proof."""
    n = pair.base.dim
    norm = max(float(np.abs(_w_by_solve(pair)).sum(axis=1).max()), 1.0)
    return _gamma(3 * n * n) * norm ** 3


# ---------------------------------------------------------------------------
# L^p norms: the regular representation and the eigen route
# ---------------------------------------------------------------------------

def _regular_norms(g, weight, xs, p):
    """L^p norms in the left regular representation conjugated by G^{1/2},
    with a least-squares density D, Tr(D pi(e_s)) = weight[s], and one
    eigendecomposition of |x|^2 per element."""
    lam, v = np.linalg.eigh(g.gram)
    root = (v * np.sqrt(lam)) @ v.conj().T
    root_inv = (v / np.sqrt(lam)) @ v.conj().T
    ops = np.einsum("pk,ikj,jq->ipq", root, g.left_regular, root_inv)
    n = g.dim
    rows = ops.transpose(0, 2, 1).reshape(n, n * n)
    vec_d, *_ = np.linalg.lstsq(rows, weight.astype(complex), rcond=None)
    assert np.max(np.abs(rows @ vec_d - weight)) < 1e-10
    density = vec_d.reshape(n, n)
    density = 0.5 * (density + density.conj().T)
    mats = np.einsum("bs,sij->bij", xs, ops)
    w, vecs = np.linalg.eigh(np.conj(mats).swapaxes(1, 2) @ mats)
    w = np.clip(w, 0.0, None)
    if p == INF:
        return np.sqrt(np.max(w, axis=1))
    d = np.real(np.einsum("bji,jl,bli->bi", np.conj(vecs), density, vecs))
    return np.sum(w ** (p / 2) * d, axis=1) ** (1 / p)


def _reference_matrices(self: Blocks, coeffs) -> list:
    """Blocks.matrices with its layout worked out on every call."""
    entries = np.asarray(coeffs, dtype=complex) @ self.to_blocks.T
    runs = [(d, self.sizes.count(d)) for d in sorted(set(self.sizes))]
    ends = np.cumsum([0] + [k * d * d for d, k in runs])
    return [entries[..., a:b].reshape(entries.shape[:-1] + (k, d, d))
            for (d, k), a, b in zip(runs, ends, ends[1:])]


def _reference_spectral_data(space: WeightedLpSpace, coeffs: np.ndarray):
    """spectral_data with one batched eigensolve of rho(x)* rho(x) for every
    block size d > 1, and every eigenvalue at or below 1e-13 times the row's
    largest zeroed."""
    w = []
    for m in space.algebra.blocks.matrices(coeffs):
        if m.shape[-1] == 1:
            w.append(np.abs(m[..., 0, 0]) ** 2)
        else:
            mm = np.conj(m).swapaxes(-1, -2) @ m
            try:
                eig = np.linalg.eigvalsh(mm)
            except np.linalg.LinAlgError:
                # LAPACK may refuse a non-finite matrix, and with it the stack
                finite = np.isfinite(mm).all(axis=(-1, -2))
                eig = np.full(mm.shape[:-1], np.nan)
                eig[finite] = np.linalg.eigvalsh(mm[finite])
            w.append(eig.reshape(eig.shape[:-2] + (-1,)))
    # clip copies, so the fuzz is zeroed in place below
    w = (w[0] if len(w) == 1 else np.concatenate(w, axis=-1)).clip(0.0)
    w[w <= 1e-13 * w.max(axis=-1, keepdims=True)] = 0.0
    return w, space.eigen_weights


def _reference_norms_from_spectral(w: np.ndarray, d: np.ndarray, p) -> np.ndarray:
    """norms_from_spectral through the np.* function forms."""
    p = lp._as_p(p)
    if p == INF:
        return np.sqrt(np.max(w, axis=-1))
    try:
        with np.errstate(over="raise", under="raise"):
            vals = _reference_power_sums(w, d, p)
    except FloatingPointError:
        return _reference_norms_at_large_p(w, d, p)
    return np.power(np.clip(vals, 0.0, None), 1.0 / p)


def _reference_power_sums(w: np.ndarray, d: np.ndarray, p: float) -> np.ndarray:
    return np.real(np.sum(np.power(w, 0.5 * p) * d, axis=-1))


def _reference_norms_at_large_p(w: np.ndarray, d: np.ndarray, p: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        vals = _reference_power_sums(w, d, p)
    top = np.max(w, axis=-1)
    fix = ~((vals >= lp._TINY) & (vals < INF)) & (top > 0) & (top < INF)
    t = np.where(fix, top, 1.0)
    factored = np.sqrt(t) * np.power(
        _reference_power_sums(w / t[..., None], d, p), 1.0 / p)
    return np.where(fix, factored,
                    np.power(np.clip(vals, 0.0, None), 1.0 / p))


# ---------------------------------------------------------------------------
# the per-choice Macaulay solver
# ---------------------------------------------------------------------------

def _reference_choices(blocks: Blocks) -> list:
    """Blocks.choices as a list of (h0, directions), one pair per choice:
    h0 is the Python sum of the blocks' options and directions the Bloch
    rows of its rank-one blocks."""
    units = blocks.from_blocks.T
    zero = (np.zeros(len(units), dtype=complex), ())
    options, start = [], 0
    for d in blocks.sizes:
        e = units[start:start + d * d]
        start += d * d
        if d == 1:
            options.append((zero, (e[0], ())))
        else:
            one = e[0] + e[3]
            bloch = (0.5 * (e[1] + e[2]), 0.5j * (e[2] - e[1]),
                     0.5 * (e[0] - e[3]))
            options.append((zero, (one, ()), (0.5 * one, bloch)))
    choices = [(sum(h for h, _ in combo),
                np.reshape([v for _, vs in combo for v in vs],
                           (-1, len(units))))
               for combo in itertools.product(*options)]
    return choices[1:]


def _reference_rows(relation, h0, dirs):
    """_quadratic_rows for one choice, one relation call per choice."""
    m = len(dirs)
    eye = np.eye(m)
    k, l = np.triu_indices(m, 1)
    stencil = np.concatenate([np.zeros((1, m)), eye, -eye, eye[k] + eye[l]])
    vals = relation(h0 + stencil @ dirs).reshape(len(stencil), -1)
    vals = np.concatenate([vals.real, vals.imag], axis=-1)
    zero, plus, minus = vals[0], vals[1:m + 1], vals[m + 1:2 * m + 1]
    quad = np.empty((m, m, vals.shape[1]))
    quad[k, l] = vals[2 * m + 1:] - plus[k] - plus[l] + zero
    quad[np.arange(m), np.arange(m)] = 0.5 * (plus + minus) - zero
    ku, lu = np.triu_indices(m)
    rows = np.concatenate([zero[None], 0.5 * (plus - minus), quad[ku, lu]]).T
    sphere = np.zeros((m // 3, rows.shape[1]))
    sphere[:, 0] = -1.0
    sphere[np.arange(m) // 3, 1 + m + np.flatnonzero(ku == lu)] = 1.0
    return np.concatenate([rows, sphere])


def _reference_roots(rows, m, affine_rows=True):
    """_bloch_roots for one system, its Macaulay degrees raised one by
    one. Without affine_rows it is the solver as it was before inconsistent
    affine rows closed a system at degree 2, kept as the reference of the
    points."""
    gaps = []

    def rank(s, absolute=False):
        rel = s if absolute else (s / s[0] if s[0] > 0 else s)
        r = int(np.sum(rel > RANK_TOL))
        gaps.append((rel[r - 1] if r else (np.inf if absolute else 0.0),
                     rel[r] if r < len(rel) else 0.0))
        return r

    def weakest():
        return (float(min(k for k, _ in gaps)),
                float(max(d for _, d in gaps)))

    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    basis = vh[:rank(s)]
    previous = len(basis[0]) - len(basis)
    if previous == 0:
        return np.zeros((m, 0)), weakest()
    if affine_rows:
        # the basis rows with no quadratic term have orthonormal affine
        # parts; fewer ranks in their n-columns put 1 in the ideal
        u, sq, _ = np.linalg.svd(basis[:, 1 + m:])
        q = rank(sq, absolute=True)
        if q < len(basis):
            affine = u[:, q:].T @ basis[:, 1:1 + m]
            if rank(np.linalg.svd(affine, compute_uv=False),
                    absolute=True) < len(basis) - q:
                return np.zeros((m, 0)), weakest()
    for d in range(3, MAX_DEGREE + 1):
        table = _shifted(m, d, 2)
        width = len(_monomials(m, d))
        mac = np.zeros((len(table), len(basis), width))
        mac[np.arange(len(table))[:, None, None],
            np.arange(len(basis))[None, :, None], table[:, None, :]] = basis
        mac = mac.reshape(-1, width)
        null = width - rank(np.linalg.svd(mac, compute_uv=False))
        if null == 0:
            return np.zeros((m, 0)), weakest()
        if null == previous:
            kernel = np.linalg.svd(mac)[2][width - null:].T
            shift = _shifted(m, d, 1)
            u, sl, vlh = np.linalg.svd(kernel[shift[:, 0]],
                                       full_matrices=False)
            if rank(sl) == null:
                rng = np.random.default_rng(STETTER_SEED)
                weights = rng.standard_normal(m)
                stetter = ((vlh.T / sl) @ u.T) @ (
                    kernel[shift[:, 1:]].transpose(0, 2, 1) @ weights)
                roots = kernel @ np.linalg.eig(stetter)[1]
                return roots[1:m + 1] / roots[0], weakest()
        previous = null
    raise QgharmError(
        f"a Macaulay null space is not stable by degree {MAX_DEGREE}")


def _enumerate_reference(g, relation, tol, affine_rows=True):
    """_enumerate with one polarization and one solve per block choice, by
    _reference_roots."""
    choices = _reference_choices(g.blocks)
    points = np.array([h0 for h0, dirs in choices if not len(dirs)])
    holds = iter(np.max(np.abs(relation(points)).reshape(len(points), -1),
                        axis=-1) <= tol)
    out, gaps = [], []
    for h0, dirs in choices:
        if not len(dirs):
            if next(holds):
                out.append(h0)
            continue
        m = len(dirs)
        rows = _reference_rows(relation, h0, dirs)
        roots, gap = _reference_roots(rows, m, affine_rows)
        gaps.append(gap)
        exps = np.array(list(_monomials(m, 2)))
        values = np.prod(roots.T[:, None, :] ** exps, axis=-1) @ rows.T
        if not np.all(np.abs(values) <= ROOT_TOL):
            raise QgharmError("a root of a block choice does not "
                              "solve its system")
        for n in roots.T[np.all(np.abs(roots.imag) <= ROOT_TOL, axis=0)]:
            n = n.real.reshape(-1, 3)
            out.append(h0 + (n / np.linalg.norm(n, axis=1)[:, None]).ravel()
                       @ dirs)
    return _Enumeration(points=out, choices=len(choices), gaps=gaps)


def _gap_bound(m):
    """How far a relative singular value of a rank decision may move
    between the reference's values-only SVD and the stacked solve's SVD
    with V, two LAPACK paths, on m Bloch unknowns. Each path is backward
    stable: its singular values are within p eps s_1 of the exact ones,
    with p = max(rows, columns) the rounding estimate of numpy's
    matrix_rank, here of the largest Macaulay matrix, at MAX_DEGREE. Each
    s_i / s_1 is then within 2 gamma_p of the exact ratio, and the two
    paths within twice that. The weakest kept and strongest dropped
    values, a min and a max over decisions, move no more."""
    rows = math.comb(m + 2, 2) * math.comb(m + MAX_DEGREE - 2, m)
    return 4 * _gamma(max(rows, math.comb(m + MAX_DEGREE, m)))


def _point_bound(m, kept):
    """How far a point of a choice with m Bloch unknowns may move between
    the reference's kernel, from its Macaulay matrix, and the stacked
    solve's, from the recursion [A N, B], whose weakest kept relative
    singular values are at least kept. Each kernel is backward stable,
    from a matrix within 2 gamma_p s_1 of the exact one (p as in
    _gap_bound), and by Wedin's theorem its angle to the exact kernel is
    at most that over the relative gap, at least kept; two routes, twice
    that. A root is read from the kernel with no further loss on the
    well-separated roots of these systems, so the point, an affine image
    of it with unit directions, moves no more."""
    return _gap_bound(m) / kept


# ---------------------------------------------------------------------------
# the structures certificates, one element at a time
# ---------------------------------------------------------------------------

def _reference_is_group_like_projection(g, h, tol):
    """group_like_checks evaluated on one element."""
    hc = g.coeffs_of(h)
    res = {
        "projection": _maxabs(g.multiply(hc, hc) - hc),
        "self_adjoint": _maxabs(g.star_of(hc) - hc),
        "nonzero": 0.0 if _maxabs(hc) > tol else math.inf,
        "defining_relation": _maxabs(_group_like_relation(g, hc)),
    }
    return check("group-like-projection", "group-like-projection", res, tol,
                 element=g.element(hc), haar_value=float(g.haar_of(hc).real))


def _reference_verify_glp_properties(g, h, tol):
    """glp_properties_checks evaluated on one element."""
    cert = _require_group_like(g, h, tol)
    hc = cert.details["element"].coeffs
    mirrored = _right_mult(g, hc).T @ g.delta(hc)
    res = {
        "antipode_fixes": _maxabs(g.antipode @ hc - hc),
        "mirrored_relation": _maxabs(mirrored - np.outer(hc, hc)),
        "weighted_functionals_equal": _maxabs(g.q_matrix @ hc
                                              - hc @ g.q_matrix),
        "convolution_idempotent": _maxabs(
            convolve(g, hc, hc).coeffs - cert.details["haar_value"] * hc),
    }
    return check("group-like-properties", "group-like-projection", res, tol,
                 modular_invariance=TRIVIAL_NOTE)


def _reference_is_biprojection(pair, h, tol):
    """biprojection_checks evaluated on one element."""
    f = _fourier_blocks(pair, h)
    blocks = pair.dual_qg.blocks
    scale = float(np.sqrt(blocks.hs(f, f).real))
    if scale <= tol:
        return check("biprojection", "fourier-multiple-of-projection",
                     {"nonzero_transform": math.inf}, tol, multiple=0.0)
    ff = f @ f
    fit = blocks.hs(f, ff) / blocks.hs(f, f)
    res_proj = _maxabs(ff - fit * f) / max(_maxabs(f), 1e-300)
    res_sa = _maxabs(f - f.conj().T) / max(_maxabs(f), 1e-300)
    return check("biprojection", "fourier-multiple-of-projection",
                 {"idempotent_after_fit": res_proj, "self_adjoint": res_sa,
                  "real_multiple": abs(fit.imag)}, tol,
                 multiple=float(fit.real))


def _reference_glpbi_check(pair, h, tol):
    """glpbi_checks evaluated on one element."""
    g = pair.base
    cert = _require_group_like(g, h, tol)
    hc = cert.details["element"].coeffs
    phi_h = cert.details["haar_value"]
    dual_cert = _reference_is_group_like_projection(
        pair.dual_qg, fourier_coeffs(pair, hc) / phi_h, tol)
    p_coeffs = range_projection_of_fourier(pair, hc)
    weight_of_range = complex(pair.dual_weight @ p_coeffs)
    back = dual_fourier(pair, p_coeffs).coeffs
    res = {
        "dual_group_like": max(dual_cert.residuals.values()),
        "weight_of_range": abs(phi_h * weight_of_range - 1.0),
        "inverse_transform_of_range": _maxabs(back - hc / phi_h),
    }
    return check("group-like-fourier-image", "dual-group-like-and-weight",
                 res, tol, haar_value=phi_h,
                 dual_weight_of_range=float(weight_of_range.real))


# ---------------------------------------------------------------------------
# sharpness: the ascent before its step objectives
# ---------------------------------------------------------------------------

def _ascend_unfolded(objective, blocks, spheres, max_iter):
    """sharpness._ascend as it was before the step objectives: every
    gradient probe and every line-search halving goes through the full
    objective, the held arguments as (..., 1, n) slices broadcast against
    the moving one, and each of the 30 halvings is scaled onto its sphere
    before it is evaluated."""
    blocks = [sharpness._unit(b[:, None], *sph)[:, 0]
              for b, sph in zip(blocks, spheres)]
    val = objective(*[b[:, None] for b in blocks])[:, 0]
    its, converged = np.zeros(len(val), int), np.zeros(len(val), bool)
    active = np.arange(len(val))
    halvings = 0.5 ** np.arange(30)
    while active.size:
        its[active] += 1
        prev = val[active]
        for bi, (space, p) in enumerate(spheres):
            def f_of(v, rows, _bi=bi):
                held = tuple(range(1, v.ndim - 1))
                return objective(*[v if j == _bi else np.expand_dims(
                    b[rows], held) for j, b in enumerate(blocks)])

            grad = sharpness._cgrad(lambda v: f_of(v, active),
                                    blocks[bi][active])
            gnorm = np.max(np.abs(grad), axis=-1)
            move = gnorm > 1e-14 * np.maximum(1.0, np.abs(val[active]))
            rows = active[move]
            if not rows.size:
                continue
            steps = (0.5 / gnorm[move])[:, None] * halvings
            cand = sharpness._unit(
                blocks[bi][rows, None, None]
                + steps[..., None, None] * grad[move, None, None], space, p)
            up = f_of(cand, rows)[..., 0]
            better = up > val[rows, None]
            hit = np.any(better, axis=-1)
            k = np.argmax(better, axis=-1)[hit]
            blocks[bi][rows[hit]] = cand[hit, k, 0]
            val[rows[hit]] = up[hit, k]
        done = val[active] - prev <= sharpness.REL_IMPROVEMENT * np.maximum(
            np.abs(prev), 1e-300)
        converged[active[done]] = True
        active = active[~done & (its[active] < max_iter)]
    return blocks, val, its, converged
