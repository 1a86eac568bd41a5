"""Finite quantum group data model.

A finite quantum group is stored as structure constants over a fixed basis
e_0..e_{n-1}: a multiplication tensor, a comultiplication matrix, counit and
Haar functionals, antipode and star matrices. All maps act on coefficient
vectors; the star is antilinear (conjugate coefficients, then apply its
matrix).

The axiom verifier is the oracle for every constructed example: it checks the
Hopf *-algebra laws, two-sided Haar invariance, positivity and faithfulness of
the state, traciality, and the involutivity of the antipode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    AxiomFailure,
    NotAGroup,
    OwnerMismatch,
    ShapeMismatch,
    Singular,
)

__all__ = [
    "CayleyTable",
    "FiniteQuantumGroup",
    "Blocks",
    "AlgebraElement",
    "AxiomReport",
    "verify_axioms",
    "build_function_algebra",
    "build_group_algebra",
    "build_kac_paljutkin",
    "cyclic_table",
    "symmetric_table_s3",
    "dihedral_table",
    "is_automorphism",
    "apply_automorphism",
    "to_json",
    "from_json",
    "json_dumps",
]


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CayleyTable:
    """Multiplication table of a finite group: table[i][j] = index of g_i g_j."""

    table: tuple
    names: Optional[tuple] = None

    @property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def identity(self) -> int:
        n = self.order
        for e in range(n):
            if all(self.table[e][j] == j and self.table[j][e] == j for j in range(n)):
                return e
        raise NotAGroup("no two-sided identity")

    @cached_property
    def inverse(self) -> tuple:
        n = self.order
        e = self.identity
        inv = [-1] * n
        for i in range(n):
            for j in range(n):
                if self.table[i][j] == e and self.table[j][i] == e:
                    inv[i] = j
                    break
            if inv[i] < 0:
                raise NotAGroup(f"element {i} has no inverse")
        return tuple(inv)

    def validate(self) -> "CayleyTable":
        n = self.order
        for i in range(n):
            if len(self.table[i]) != n:
                raise NotAGroup("table is not square")
            if sorted(self.table[i]) != list(range(n)):
                raise NotAGroup(f"row {i} is not a permutation")
            if sorted(self.table[j][i] for j in range(n)) != list(range(n)):
                raise NotAGroup(f"column {i} is not a permutation")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise NotAGroup(f"associativity fails at ({i},{j},{k})")
        _ = self.identity
        _ = self.inverse
        return self


def cyclic_table(n: int) -> CayleyTable:
    """Z/n with elements 0..n-1 under addition."""
    if n < 1:
        raise NotAGroup("order must be positive")
    return CayleyTable(
        table=tuple(tuple((i + j) % n for j in range(n)) for i in range(n)),
        names=tuple(str(i) for i in range(n)),
    ).validate()


def symmetric_table_s3() -> CayleyTable:
    """S3 as permutations of {0,1,2} in lexicographic order; (pq)(x) = p(q(x))."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(3))] for q in perms) for p in perms
    )
    names = tuple("".join(str(v) for v in p) for p in perms)
    return CayleyTable(table=table, names=names).validate()


def dihedral_table(n: int) -> CayleyTable:
    """Dihedral group of order 2n, elements r^i s^j indexed i + n*j."""
    if n < 1:
        raise NotAGroup("order must be positive")

    def idx(i: int, j: int) -> int:
        return i % n + n * (j % 2)

    table = []
    for a in range(2 * n):
        i1, j1 = a % n, a // n
        row = []
        for b in range(2 * n):
            i2, j2 = b % n, b // n
            i = (i1 + (i2 if j1 == 0 else -i2)) % n
            row.append(idx(i, j1 ^ j2))
        table.append(tuple(row))
    names = tuple(f"r{i}s{j}" if j else f"r{i}" for j in range(2) for i in range(n))
    return CayleyTable(table=tuple(table), names=names).validate()


# ---------------------------------------------------------------------------
# the quantum group data model
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FiniteQuantumGroup:
    """Structure constants of a finite quantum group.

    mult[i, j, k]: coefficient of e_k in e_i e_j.
    comult[(i*n + j), k]: coefficient of e_i x e_j in Delta(e_k).
    counit, haar: row functionals. antipode, star: matrices acting on
    coefficient columns (star is applied to the conjugated coefficients).
    """

    dim: int
    mult: np.ndarray
    unit: np.ndarray
    comult: np.ndarray
    counit: np.ndarray
    antipode: np.ndarray
    star: np.ndarray
    haar: np.ndarray
    name: Optional[str] = None

    def __post_init__(self) -> None:
        n = self.dim
        self.mult = np.ascontiguousarray(np.asarray(self.mult, dtype=complex))
        self.unit = np.asarray(self.unit, dtype=complex).reshape(-1)
        self.comult = np.ascontiguousarray(np.asarray(self.comult, dtype=complex))
        self.counit = np.asarray(self.counit, dtype=complex).reshape(-1)
        self.antipode = np.asarray(self.antipode, dtype=complex)
        self.star = np.asarray(self.star, dtype=complex)
        self.haar = np.asarray(self.haar, dtype=complex).reshape(-1)
        shapes = {
            "mult": (self.mult.shape, (n, n, n)),
            "unit": (self.unit.shape, (n,)),
            "comult": (self.comult.shape, (n * n, n)),
            "counit": (self.counit.shape, (n,)),
            "antipode": (self.antipode.shape, (n, n)),
            "star": (self.star.shape, (n, n)),
            "haar": (self.haar.shape, (n,)),
        }
        for key, (got, want) in shapes.items():
            if got != want:
                raise ShapeMismatch(f"{key}: expected shape {want}, got {got}")
        for arr in (self.mult, self.unit, self.comult, self.counit,
                    self.antipode, self.star, self.haar):
            arr.flags.writeable = False

    # -- elementary operations on coefficient vectors --

    def coeffs_of(self, x) -> np.ndarray:
        """Coefficients of x, shape (..., n): one vector or a stack of them.
        The maps below broadcast over the leading axes."""
        if isinstance(x, AlgebraElement):
            if x.owner is not self:
                raise OwnerMismatch("element belongs to a different algebra")
            return x.coeffs
        c = np.asarray(x, dtype=complex)
        if c.shape[-1:] != (self.dim,):
            raise ShapeMismatch(f"expected {self.dim} coefficients, got {c.shape}")
        return c

    def element(self, coeffs) -> "AlgebraElement":
        return AlgebraElement(owner=self, coeffs=coeffs)

    def multiply(self, x, y) -> np.ndarray:
        a, b = self.coeffs_of(x), self.coeffs_of(y)
        n = self.dim
        left = (a @ self.mult.reshape(n, n * n)).reshape(a.shape[:-1] + (n, n))
        return (b[..., None, :] @ left)[..., 0, :]

    def star_of(self, x) -> np.ndarray:
        return np.conj(self.coeffs_of(x)) @ self.star.T

    def delta(self, x) -> np.ndarray:
        """Delta(x) as an (..., n, n) coefficient matrix over e_i x e_j."""
        c = self.coeffs_of(x)
        return (c @ self.comult.T).reshape(c.shape[:-1] + (self.dim, self.dim))

    def antipode_of(self, x) -> np.ndarray:
        return self.coeffs_of(x) @ self.antipode.T

    def haar_of(self, x) -> complex:
        return self.coeffs_of(x) @ self.haar

    def tensor_mult(self, xx: np.ndarray, yy: np.ndarray) -> np.ndarray:
        """Product in M x M of two (n, n) coefficient matrices."""
        return np.einsum("ij,kl,ikp,jlq->pq", xx, yy, self.mult, self.mult,
                         optimize=True)

    # -- derived data --

    @cached_property
    def comult3(self) -> np.ndarray:
        """comult reshaped to (n, n, n): [i, j, k] = coeff of e_i x e_j in Delta(e_k)."""
        n = self.dim
        return self.comult.reshape(n, n, n)

    @cached_property
    def q_matrix(self) -> np.ndarray:
        """Q[i, j] = haar(e_i e_j)."""
        return np.einsum("ijk,k->ij", self.mult, self.haar, optimize=True)

    @cached_property
    def gram(self) -> np.ndarray:
        """G[i, j] = haar(e_i* e_j); Hermitian positive definite when faithful."""
        return self.star.T @ self.q_matrix

    @cached_property
    def left_regular(self) -> np.ndarray:
        """Stack L[i] of left multiplication matrices on coefficient space."""
        return np.ascontiguousarray(np.transpose(self.mult, (0, 2, 1)))

    @cached_property
    def blocks(self) -> "Blocks":
        """The Wedderburn block decomposition; see Blocks."""
        try:
            return _wedderburn(self)
        except np.linalg.LinAlgError as exc:   # e.g. a state that is not faithful
            raise AxiomFailure(f"no block decomposition: {exc}") from exc

    def __repr__(self) -> str:
        label = self.name or "unnamed"
        return f"FiniteQuantumGroup({label}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Coefficient vector, or a stack of them along leading axes, tagged
    with the algebra it lives in."""

    owner: FiniteQuantumGroup
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.shape[-1:] != (self.owner.dim,):
            raise ShapeMismatch(
                f"expected {self.owner.dim} coefficients, got {self.coeffs.shape}"
            )


# ---------------------------------------------------------------------------
# the block (Wedderburn) picture
# ---------------------------------------------------------------------------

# seed of the generic elements that split the centre and the blocks
BLOCK_SEED = 1611


@dataclass(frozen=True, eq=False)
class Blocks:
    """The algebra as a direct sum of matrix blocks, M = (+)_i M_{d_i}.

    central[i] holds the coefficients of the minimal central projection z_i
    and sizes[i] = d_i, ascending, so the one-dimensional blocks (the
    characters) come first. rho_i is an irreducible *-representation: the
    star becomes the matrix adjoint. to_blocks maps coefficients to the
    concatenated row-major entries of rho_i(x); it is square, since
    sum_i d_i^2 = n, and from_blocks is its inverse. Every tracial weight is
    sum_i c_i tr rho_i with c_i = weight(z_i) / d_i.
    """

    central: np.ndarray
    sizes: tuple
    to_blocks: np.ndarray
    from_blocks: np.ndarray

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """d_i once per row of block i: the multiplicity of rho_i in the left
        regular representation, as row weights of the block-diagonal form."""
        return np.repeat(self.sizes, self.sizes).astype(float)

    @cached_property
    def _diag_index(self) -> tuple:
        """Row and column of each block entry in the block-diagonal form,
        in the order of the concatenated entries."""
        owner = np.repeat(np.arange(len(self.sizes)), self.sizes)
        return np.nonzero(owner[:, None] == owner)

    def diag(self, coeffs) -> np.ndarray:
        """(+)_i rho_i(x) as one block-diagonal matrix of size sum_i d_i,
        batched over the leading axes of coeffs."""
        entries = np.asarray(coeffs, dtype=complex) @ self.to_blocks.T
        m = len(self.multiplicity)
        out = np.zeros(entries.shape[:-1] + (m, m), dtype=complex)
        out[..., self._diag_index[0], self._diag_index[1]] = entries
        return out

    def matrices(self, coeffs) -> list:
        """rho_i(x) in block order, batched over the leading axes of coeffs:
        one (..., count, d, d) array for the count blocks of each size d."""
        entries = np.asarray(coeffs, dtype=complex) @ self.to_blocks.T
        runs = [(d, self.sizes.count(d)) for d in sorted(set(self.sizes))]
        ends = np.cumsum([0] + [k * d * d for d, k in runs])
        return [entries[..., a:b].reshape(entries.shape[:-1] + (k, d, d))
                for (d, k), a, b in zip(runs, ends, ends[1:])]

    def hs(self, a: np.ndarray, b: np.ndarray):
        """Hilbert-Schmidt inner product of two block-diagonal matrices as
        operators on L^2(G), where block i appears d_i times; batched over
        the leading axes."""
        return np.sum(np.conj(a) * (self.multiplicity[:, None] * b),
                      axis=(-2, -1))

    def coeffs_of_diag(self, mat: np.ndarray) -> np.ndarray:
        """Coefficients of the element whose blocks are the diagonal blocks
        of mat; entries outside them are ignored."""
        return self.from_blocks @ mat[self._diag_index]

    def weights(self, weight) -> np.ndarray:
        """c_i = weight(z_i) / d_i, one real value per block."""
        return np.real(self.central @ weight) / np.asarray(self.sizes)

    def trace_form(self, c) -> np.ndarray:
        """The functional sum_i c_i tr rho_i as a row over the basis."""
        rows, cols = self._diag_index
        return np.repeat(c, self.sizes) @ self.to_blocks[rows == cols]


def _wedderburn(g: "FiniteQuantumGroup") -> Blocks:
    """Blocks of g from its centre, a Cholesky factor of the Gram matrix and
    seeded generic elements.

    The centre is the null space of x -> [x, e_j]. Multiplication by a
    generic self-adjoint central element (complex random weights) has the
    minimal central projections as eigenvectors, and tr L_{z_i} = d_i^2.
    Right multiplication by z_i y, y generic self-adjoint, is self-adjoint
    for the Haar inner product (the state is tracial); its top eigenspace is
    a minimal left ideal M e of block i, and rho_i is left multiplication on
    it in an orthonormal basis. Raises AxiomFailure unless the block count
    equals the centre dimension, sum d_i^2 = n, the rho_i are
    *-homomorphisms within 1e-10, and they reproduce the Haar state.
    """
    n = g.dim
    rng = np.random.default_rng(BLOCK_SEED)

    def generic_self_adjoint(basis: np.ndarray) -> np.ndarray:
        k = basis.shape[1]
        z = basis @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        return z + g.star_of(z)

    comm = (g.mult - g.mult.transpose(1, 0, 2)).reshape(n, n * n).T
    _, s, vh = np.linalg.svd(comm)
    centre = vh[int(np.sum(s > 1e-10 * np.linalg.norm(g.mult))):].conj().T
    k = centre.shape[1]
    if k == 0:
        raise AxiomFailure("the algebra has no centre, not even its unit")
    lz = np.einsum("i,ikj->kj", generic_self_adjoint(centre), g.left_regular)
    lam, vec = np.linalg.eig(centre.conj().T @ lz @ centre)
    order = np.argsort(lam.real)
    lam, vec = lam.real[order], vec[:, order]
    count = 1 + int(np.sum(np.diff(lam) > 1e-8 * max(np.max(np.abs(lam)), 1.0)))
    if count != k:
        raise AxiomFailure(f"{count} blocks for a centre of dimension {k}")
    central = ((centre @ vec) * np.linalg.solve(vec, centre.conj().T @ g.unit)).T

    squares = np.real(central @ np.einsum("skk->s", g.mult))
    sizes = np.rint(np.sqrt(np.clip(squares, 0.0, None))).astype(int)
    if _maxabs(squares - sizes ** 2) > 1e-8 or sizes.min() < 1 \
            or int(np.sum(sizes ** 2)) != n:
        raise AxiomFailure(f"block dimensions {squares} are not squares "
                           f"summing to {n}")
    order = np.argsort(sizes, kind="stable")
    central, sizes = central[order], tuple(int(d) for d in sizes[order])

    chol = np.linalg.cholesky(0.5 * (g.gram + g.gram.conj().T))
    to_gns = np.linalg.inv(chol).conj().T     # columns orthonormal for <x, y>
    y = generic_self_adjoint(np.eye(n))
    reps = []
    for z, d in zip(central, sizes):
        right = np.einsum("s,jsk->kj", g.multiply(z, y), g.mult)
        herm = chol.conj().T @ right @ to_gns
        w, vecs = np.linalg.eigh(0.5 * (herm + herm.conj().T))
        top = int(np.argmax(np.abs(w)))
        ideal = np.abs(w - w[top]) <= 1e-8 * abs(w[top])
        if int(np.sum(ideal)) != d:
            raise AxiomFailure(f"a minimal left ideal of a block of size {d} "
                               f"has dimension {int(np.sum(ideal))}")
        u = to_gns @ vecs[:, ideal]
        reps.append(np.einsum("ka,skj,jb->sab", (g.gram @ u).conj(),
                              g.left_regular, u))

    hom = max(_maxabs(np.einsum("sab,tbc->stac", r, r)
                      - np.einsum("stu,uac->stac", g.mult, r)) for r in reps)
    star = max(_maxabs(np.einsum("us,uab->sba", g.star, r).conj() - r)
               for r in reps)
    if max(hom, star) > 1e-10:
        raise AxiomFailure(f"block representations fail: homomorphism "
                           f"{hom:.3e}, star {star:.3e}")
    to_blocks = np.concatenate([r.reshape(n, -1).T for r in reps])
    blocks = Blocks(central=central, sizes=sizes, to_blocks=to_blocks,
                    from_blocks=np.linalg.inv(to_blocks))
    gap = _maxabs(blocks.trace_form(blocks.weights(g.haar)) - g.haar)
    if gap > 1e-10:
        raise AxiomFailure(f"blocks miss the Haar state by {gap:.3e}")
    return blocks


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomReport:
    residuals: dict
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    def failing(self) -> dict:
        return {k: v for k, v in self.residuals.items() if v > self.tol}


def _maxabs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def verify_axioms(g: FiniteQuantumGroup, tol: float = 1e-10) -> AxiomReport:
    """Check the Hopf *-algebra and Haar axioms; every residual must be <= tol."""
    n = g.dim
    m, c3 = g.mult, g.comult3
    eye = np.eye(n)
    res = {}

    # algebra laws
    assoc_l = np.einsum("ijl,lkm->ijkm", m, m, optimize=True)
    assoc_r = np.einsum("jkl,ilm->ijkm", m, m, optimize=True)
    res["associativity"] = _maxabs(assoc_l - assoc_r)
    res["unit"] = max(
        _maxabs(np.einsum("ijk,i->jk", m, g.unit) - eye),
        _maxabs(np.einsum("ijk,j->ik", m, g.unit) - eye),
    )

    # coalgebra laws: (Delta x i)Delta and (i x Delta)Delta as (n,n,n,n) tensors
    lhs = np.einsum("abi,ijk->abjk", c3, c3, optimize=True)
    rhs = np.einsum("aik,bci->abck", c3, c3, optimize=True)
    res["coassociativity"] = _maxabs(lhs - rhs)
    res["counit"] = max(
        _maxabs(np.einsum("abk,a->bk", c3, g.counit) - eye),
        _maxabs(np.einsum("abk,b->ak", c3, g.counit) - eye),
    )
    res["delta_unital"] = _maxabs(g.delta(g.unit) - np.outer(g.unit, g.unit))

    # Delta is a *-homomorphism
    dprod = np.einsum("abi,cdj,acp,bdq->pqij", c3, c3, m, m, optimize=True)
    dmul = np.einsum("pqk,ijk->pqij", c3.reshape(n, n, n), m, optimize=True)
    res["delta_homomorphism"] = _maxabs(dprod - dmul)
    dstar_lhs = np.einsum("abk,kl->abl", c3, g.star, optimize=True)
    dstar_rhs = np.einsum("ap,bq,pql->abl", g.star, g.star, np.conj(c3),
                          optimize=True)
    res["delta_star_compatibility"] = _maxabs(dstar_lhs - dstar_rhs)

    # antipode axiom and involutivity
    s = g.antipode
    anti_l = np.einsum("abk,pa,pbq->qk", c3, s, m, optimize=True)
    anti_r = np.einsum("abk,pb,apq->qk", c3, s, m, optimize=True)
    target = np.outer(g.unit, g.counit)
    res["antipode"] = max(_maxabs(anti_l - target), _maxabs(anti_r - target))
    res["antipode_squared"] = _maxabs(s @ s - eye)

    # star laws: involution, and (e_i e_j)* = e_j* e_i*
    res["star_involution"] = _maxabs(g.star @ np.conj(g.star) - eye)
    star_prod = np.einsum("ijk,lk->ijl", np.conj(m), g.star, optimize=True)
    star_rev = np.einsum("pj,qi,pql->ijl", g.star, g.star, m, optimize=True)
    res["star_antimultiplicative"] = _maxabs(star_prod - star_rev)

    # Haar state
    phi = g.haar
    left_inv = np.einsum("abk,b->ak", c3, phi, optimize=True)
    right_inv = np.einsum("abk,a->bk", c3, phi, optimize=True)
    inv_target = np.outer(g.unit, phi)
    res["haar_left_invariance"] = _maxabs(left_inv - inv_target)
    res["haar_right_invariance"] = _maxabs(right_inv - inv_target)
    res["haar_normalized"] = abs(complex(phi @ g.unit) - 1.0)

    gram = g.gram
    res["gram_hermitian"] = _maxabs(gram - gram.conj().T)
    herm = 0.5 * (gram + gram.conj().T)
    eigs = np.linalg.eigvalsh(herm)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    res["positivity"] = max(0.0, -lam_min)
    floor = 1e-8 * max(lam_max, 1e-300)
    res["faithfulness"] = 0.0 if lam_min > floor else max(floor - lam_min, floor)

    q = g.q_matrix
    res["traciality"] = _maxabs(q - q.T)

    return AxiomReport(residuals={k: float(v) for k, v in res.items()}, tol=tol)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_function_algebra(group: CayleyTable, name: Optional[str] = None) -> FiniteQuantumGroup:
    """Functions on a finite group: pointwise product, Delta f(s,t) = f(st)."""
    group.validate()
    n = group.order
    mult = np.zeros((n, n, n))
    for i in range(n):
        mult[i, i, i] = 1.0
    comult = np.zeros((n * n, n))
    for s in range(n):
        for t in range(n):
            comult[s * n + t, group.table[s][t]] = 1.0
    counit = np.zeros(n)
    counit[group.identity] = 1.0
    antipode = np.zeros((n, n))
    for j in range(n):
        antipode[group.inverse[j], j] = 1.0
    qg = FiniteQuantumGroup(
        dim=n,
        mult=mult,
        unit=np.ones(n),
        comult=comult,
        counit=counit,
        antipode=antipode,
        star=np.eye(n),
        haar=np.full(n, 1.0 / n),
        name=name,
    )
    _accept(qg)
    return qg


def build_group_algebra(group: CayleyTable, name: Optional[str] = None) -> FiniteQuantumGroup:
    """Group algebra: u_g u_h = u_{gh}, Delta(u_g) = u_g x u_g, phi = [g = e]."""
    group.validate()
    n = group.order
    mult = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            mult[i, j, group.table[i][j]] = 1.0
    comult = np.zeros((n * n, n))
    for gidx in range(n):
        comult[gidx * n + gidx, gidx] = 1.0
    unit = np.zeros(n)
    unit[group.identity] = 1.0
    inv_perm = np.zeros((n, n))
    for j in range(n):
        inv_perm[group.inverse[j], j] = 1.0
    haar = np.zeros(n)
    haar[group.identity] = 1.0
    qg = FiniteQuantumGroup(
        dim=n,
        mult=mult,
        unit=unit,
        comult=comult,
        counit=np.ones(n),
        antipode=inv_perm,
        star=inv_perm,
        haar=haar,
        name=name,
    )
    _accept(qg)
    return qg


def build_kac_paljutkin() -> FiniteQuantumGroup:
    """The 8-dimensional quantum group that is neither commutative nor
    cocommutative.

    Derived from its minimal presentation: generators x, y, z, all
    self-adjoint and fixed by the antipode, with

        x^2 = y^2 = 1,  xy = yx,  zx = yz,  zy = xz,
        z^2 = t  where  t = (1 + x + y - xy) / 2,
        Delta(x) = x.x,  Delta(y) = y.y,
        Delta(z) = (1.1 + 1.x + y.1 - y.x)(z.z) / 2,

    (a dot stands for the tensor sign). Here x and y are self-adjoint and z
    is unitary of order four, so z* = z^{-1} = tz; the antipode fixes all
    three generators. The basis is x^a y^b z^c; products are expanded with
    the rewriting rule z x^a y^b = x^b y^a z and the z^2 relation. The Haar
    state is solved from the invariance equations rather than postulated.
    The axiom verifier at 1e-12 plus the failure of commutativity and
    cocommutativity certifies the construction: up to isomorphism there is
    only one such quantum group of dimension 8.
    """
    n = 8

    def widx(a: int, b: int, c: int) -> int:
        return (a % 2) + 2 * (b % 2) + 4 * (c % 2)

    def word_times_klein(a: int, b: int, coeff: float, out: np.ndarray,
                         c_left: int) -> None:
        # accumulate coeff * x^a y^b z^{c_left} * z^2 expanded via the relation
        for da, db, sign in ((0, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, -1.0)):
            out[widx(a + da, b + db, c_left)] += 0.5 * coeff * sign

    mult = np.zeros((n, n, n))
    for a1 in range(2):
        for b1 in range(2):
            for c1 in range(2):
                i = widx(a1, b1, c1)
                for a2 in range(2):
                    for b2 in range(2):
                        for c2 in range(2):
                            j = widx(a2, b2, c2)
                            if c1 == 0:
                                aa, bb = a1 + a2, b1 + b2
                            else:
                                aa, bb = a1 + b2, b1 + a2
                            if c1 + c2 < 2:
                                mult[i, j, widx(aa, bb, c1 + c2)] += 1.0
                            else:
                                word_times_klein(aa, bb, 1.0, mult[i, j], 0)

    unit = np.zeros(n)
    unit[widx(0, 0, 0)] = 1.0

    qg_alg = FiniteQuantumGroup(
        dim=n, mult=mult, unit=unit,
        comult=np.zeros((n * n, n)), counit=np.ones(n),
        antipode=np.eye(n), star=np.eye(n), haar=unit.copy(),
    )  # scaffold carrying only the product, for tensor_mult below

    def basis_vec(a: int, b: int, c: int) -> np.ndarray:
        v = np.zeros(n)
        v[widx(a, b, c)] = 1.0
        return v

    x_v, y_v, z_v = basis_vec(1, 0, 0), basis_vec(0, 1, 0), basis_vec(0, 0, 1)
    delta_x = np.outer(x_v, x_v)
    delta_y = np.outer(y_v, y_v)
    j_factor = 0.5 * (np.outer(unit, unit) + np.outer(unit, x_v)
                      + np.outer(y_v, unit) - np.outer(y_v, x_v))
    delta_z = qg_alg.tensor_mult(j_factor, np.outer(z_v, z_v))

    comult = np.zeros((n * n, n), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                acc = np.outer(unit, unit).astype(complex)
                for _ in range(a):
                    acc = qg_alg.tensor_mult(acc, delta_x)
                for _ in range(b):
                    acc = qg_alg.tensor_mult(acc, delta_y)
                for _ in range(c):
                    acc = qg_alg.tensor_mult(acc, delta_z)
                comult[:, widx(a, b, c)] = acc.reshape(-1)

    # S fixes the generators and reverses words: x^a y^b z -> x^b y^a z.
    antipode = np.zeros((n, n))
    for a in range(2):
        for b in range(2):
            antipode[widx(a, b, 0), widx(a, b, 0)] = 1.0
            antipode[widx(b, a, 1), widx(a, b, 1)] = 1.0

    # star: words without z are fixed; (x^a y^b z)* = z^{-1} y^b x^a
    # = t x^b y^a z, which expands through the z^2 element t.
    star = np.zeros((n, n))
    for a in range(2):
        for b in range(2):
            star[widx(a, b, 0), widx(a, b, 0)] = 1.0
            word_times_klein(b, a, 1.0, star[:, widx(a, b, 1)], 1)

    # Haar state: solve (i x phi) Delta = phi(.) 1 together with phi(1) = 1.
    c3 = comult.reshape(n, n, n)
    rows = []
    rhs = []
    for k in range(n):
        block = np.zeros((n, n), dtype=complex)   # column s: d/dphi_s of lhs
        for s in range(n):
            block[:, s] = c3[:, s, k]
        block -= np.outer(unit, np.eye(n)[k])
        rows.append(block)
        rhs.append(np.zeros(n))
    rows.append(unit.reshape(1, n).astype(complex))
    rhs.append(np.ones(1))
    system = np.vstack([r.reshape(-1, n) for r in rows])
    target = np.concatenate(rhs)
    haar, *_ = np.linalg.lstsq(system, target, rcond=None)
    if _maxabs(system @ haar - target) > 1e-12:
        raise AxiomFailure("no invariant state for the presented data")

    qg = FiniteQuantumGroup(
        dim=n,
        mult=mult,
        unit=unit,
        comult=comult,
        counit=np.ones(n),
        antipode=antipode,
        star=star,
        haar=haar,
        name="kac-paljutkin",
    )
    _accept(qg, tol=1e-12)

    flip = qg.comult3.transpose(1, 0, 2)
    if _maxabs(qg.comult3 - flip) < 1e-9:
        raise AxiomFailure("presented data is cocommutative")
    if _maxabs(qg.mult - qg.mult.transpose(1, 0, 2)) < 1e-9:
        raise AxiomFailure("presented data is commutative")
    return qg


def _accept(qg: FiniteQuantumGroup, tol: float = 1e-12) -> None:
    report = verify_axioms(qg, tol=tol)
    if not report.passed:
        raise AxiomFailure(f"construction fails axioms: {report.failing()}")


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def is_automorphism(g: FiniteQuantumGroup, alpha: np.ndarray, tol: float = 1e-10) -> bool:
    """True when alpha preserves multiplication, the unit, and the star."""
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (g.dim, g.dim):
        raise ShapeMismatch(f"expected {(g.dim, g.dim)}, got {alpha.shape}")
    if abs(np.linalg.det(alpha)) < 1e-12:
        return False
    m = g.mult
    lhs = np.einsum("ijk,pk->ijp", m, alpha, optimize=True)
    rhs = np.einsum("ai,bj,abp->ijp", alpha, alpha, m, optimize=True)
    if _maxabs(lhs - rhs) > tol:
        return False
    if _maxabs(alpha @ g.unit - g.unit) > tol:
        return False
    if _maxabs(alpha @ g.star - g.star @ np.conj(alpha)) > tol:
        return False
    return True


def apply_automorphism(g: FiniteQuantumGroup, alpha: np.ndarray, x) -> AlgebraElement:
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (g.dim, g.dim):
        raise ShapeMismatch(f"expected {(g.dim, g.dim)}, got {alpha.shape}")
    return g.element(g.coeffs_of(x) @ alpha.T)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _encode_array(a: np.ndarray) -> list:
    """Nested lists with complex entries as [re, im] pairs."""
    if a.ndim == 1:
        return [[float(v.real), float(v.imag)] for v in a]
    return [_encode_array(row) for row in a]

def _decode_array(data, shape) -> np.ndarray:
    flat = np.asarray(data, dtype=float).reshape(-1, 2)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(shape)


def to_json(g: FiniteQuantumGroup) -> dict:
    n = g.dim
    return {
        "dim": n,
        "mult": _encode_array(g.mult),
        "comult": _encode_array(g.comult),
        "counit": _encode_array(g.counit),
        "antipode": _encode_array(g.antipode),
        "star": _encode_array(g.star),
        "haar": _encode_array(g.haar),
    }


def from_json(doc: dict) -> FiniteQuantumGroup:
    n = int(doc["dim"])
    mult = _decode_array(doc["mult"], (n, n, n))
    # the unit is not stored: recover it as the two-sided identity of mult
    lhs = np.transpose(mult, (1, 2, 0)).reshape(n * n, n)
    target = np.eye(n).reshape(-1)
    unit, *_ = np.linalg.lstsq(lhs, target, rcond=None)
    if _maxabs(np.einsum("ijk,i->jk", mult, unit) - np.eye(n)) > 1e-8:
        raise Singular("multiplication tensor has no unit")
    return FiniteQuantumGroup(
        dim=n,
        mult=mult,
        unit=unit,
        comult=_decode_array(doc["comult"], (n * n, n)),
        counit=_decode_array(doc["counit"], (n,)),
        antipode=_decode_array(doc["antipode"], (n, n)),
        star=_decode_array(doc["star"], (n, n)),
        haar=_decode_array(doc["haar"], (n,)),
    )


def json_dumps(doc: dict) -> str:
    """Canonical JSON encoding: sorted keys, two-space indent, trailing
    newline. Every CLI document is written with it."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
