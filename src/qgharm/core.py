"""Finite quantum group data model.

A finite quantum group is stored as structure constants over a fixed basis
e_0..e_{n-1}: a multiplication tensor, a comultiplication matrix, counit and
Haar functionals, antipode and star matrices. All maps act on coefficient
vectors; the star is antilinear (conjugate coefficients, then apply its
matrix).

The axiom verifier is the oracle for every constructed example: it checks the
Hopf *-algebra laws, two-sided Haar invariance, positivity and faithfulness of
the state, traciality, and the involutivity of the antipode. A structure
that transposed makes from a checked group takes the laws that re-index the
group's own from the group's residuals, and evaluates the rest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import AxiomFailure, QgharmError
from .report import Check, check

__all__ = [
    "CayleyTable",
    "FiniteQuantumGroup",
    "Blocks",
    "AlgebraElement",
    "verify_axioms",
    "build_function_algebra",
    "build_group_algebra",
    "build_kac_paljutkin",
    "transposed",
    "cyclic_table",
    "symmetric_table_s3",
    "dihedral_table",
]


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CayleyTable:
    """Multiplication table of a finite group: table[i][j] = index of g_i g_j."""

    table: tuple

    @property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def identity(self) -> int:
        n = self.order
        for e in range(n):
            if all(self.table[e][j] == j and self.table[j][e] == j for j in range(n)):
                return e
        raise QgharmError("no two-sided identity")

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
                raise QgharmError(f"element {i} has no inverse")
        return tuple(inv)

    def validate(self) -> "CayleyTable":
        """Refuse a table that is not a Latin square with a two-sided identity
        and inverses. Associativity is left to the builders' axiom gate: C(G)
        fails coassociativity without it, and C[G] associativity."""
        n = self.order
        for i in range(n):
            if len(self.table[i]) != n:
                raise QgharmError("table is not square")
            if sorted(self.table[i]) != list(range(n)):
                raise QgharmError(f"row {i} is not a permutation")
            if sorted(self.table[j][i] for j in range(n)) != list(range(n)):
                raise QgharmError(f"column {i} is not a permutation")
        _ = self.identity
        _ = self.inverse
        return self


def cyclic_table(n: int) -> CayleyTable:
    """Z/n with elements 0..n-1 under addition."""
    if n < 1:
        raise QgharmError("order must be positive")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return CayleyTable(table=table)


def symmetric_table_s3() -> CayleyTable:
    """S3 as permutations of {0,1,2} in lexicographic order; (pq)(x) = p(q(x))."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(3))] for q in perms) for p in perms
    )
    return CayleyTable(table=table)


def dihedral_table(n: int) -> CayleyTable:
    """Dihedral group of order 2n, elements r^i s^j indexed i + n*j."""
    if n < 1:
        raise QgharmError("order must be positive")

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
    return CayleyTable(table=tuple(table))


# ---------------------------------------------------------------------------
# the quantum group data model
# ---------------------------------------------------------------------------

def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class FiniteQuantumGroup:
    """Structure constants of a finite quantum group.

    mult[i, j, k]: coefficient of e_k in e_i e_j.
    comult[(i*n + j), k]: coefficient of e_i x e_j in Delta(e_k).
    counit, haar: row functionals. antipode, star: matrices acting on
    coefficient columns (star is applied to the conjugated coefficients).
    The fields cannot be reassigned, and the tensors and the cached arrays
    derived from them are read-only, so the cached derived data and axiom
    residuals always describe them.
    """

    mult: np.ndarray
    unit: np.ndarray
    comult: np.ndarray
    counit: np.ndarray
    antipode: np.ndarray
    star: np.ndarray
    haar: np.ndarray
    name: Optional[str] = None

    def __post_init__(self) -> None:
        # copies, so that no array the caller holds can change them
        tensors = {
            "mult": np.array(self.mult, dtype=complex, order="C"),
            "unit": np.array(self.unit, dtype=complex).reshape(-1),
            "comult": np.array(self.comult, dtype=complex, order="C"),
            "counit": np.array(self.counit, dtype=complex).reshape(-1),
            "antipode": np.array(self.antipode, dtype=complex),
            "star": np.array(self.star, dtype=complex),
            "haar": np.array(self.haar, dtype=complex).reshape(-1),
        }
        n = len(tensors["unit"])
        shapes = {"mult": (n, n, n), "unit": (n,), "comult": (n * n, n),
                  "counit": (n,), "antipode": (n, n), "star": (n, n),
                  "haar": (n,)}
        for key, arr in tensors.items():
            if arr.shape != shapes[key]:
                raise QgharmError(
                    f"{key}: expected shape {shapes[key]}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise AxiomFailure(f"{key} has a non-finite entry")
            object.__setattr__(self, key, arr)
        for arr in tensors.values():
            _read_only(arr)

    @property
    def dim(self) -> int:
        """n, the length of the unit's coefficient vector."""
        return len(self.unit)

    # -- elementary operations on coefficient vectors --

    def coeffs_of(self, x) -> np.ndarray:
        """Coefficients of x, shape (..., n): one vector or a stack of them.
        The maps below broadcast over the leading axes."""
        if isinstance(x, AlgebraElement):
            if x.owner is not self:
                raise QgharmError("element belongs to a different algebra")
            return x.coeffs
        c = np.asarray(x, dtype=complex)
        if c.shape[-1:] != (self.dim,):
            raise QgharmError(f"expected {self.dim} coefficients, got {c.shape}")
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

    # -- derived data --

    @cached_property
    def comult3(self) -> np.ndarray:
        """comult reshaped to (n, n, n): [i, j, k] = coeff of e_i x e_j in Delta(e_k)."""
        n = self.dim
        return self.comult.reshape(n, n, n)

    @cached_property
    def q_matrix(self) -> np.ndarray:
        """Q[i, j] = haar(e_i e_j)."""
        return _read_only(self.mult @ self.haar)

    @cached_property
    def gram(self) -> np.ndarray:
        """G[i, j] = haar(e_i* e_j); Hermitian positive definite when faithful."""
        return _read_only(self.star.T @ self.q_matrix)

    @cached_property
    def left_regular(self) -> np.ndarray:
        """Stack L[i] of left multiplication matrices on coefficient space."""
        return _read_only(
            np.ascontiguousarray(np.transpose(self.mult, (0, 2, 1))))

    @cached_property
    def blocks(self) -> "Blocks":
        """The Wedderburn block decomposition; see Blocks."""
        try:
            return _wedderburn(self)
        except np.linalg.LinAlgError as exc:   # e.g. a state that is not faithful
            raise AxiomFailure(f"no block decomposition: {exc}") from exc

    @cached_property
    def haar_eigen_weights(self) -> np.ndarray:
        """The Haar state's c_i once per eigenvalue, for lp.base_space."""
        return _read_only(np.repeat(self.blocks.weights(self.haar),
                                    self.blocks.sizes))

    @cached_property
    def _axiom_residuals(self) -> dict:
        """The residuals of verify_axioms, evaluated once per object."""
        return _axiom_residuals(self)

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
            raise QgharmError(
                f"expected {self.owner.dim} coefficients, got {self.coeffs.shape}"
            )


# ---------------------------------------------------------------------------
# the block (Wedderburn) picture
# ---------------------------------------------------------------------------

# seed of the generic elements that split the centre and the blocks
BLOCK_SEED = 1611


@lru_cache(maxsize=None)
def _block_weights(k: int, n: int) -> tuple:
    """The complex weights of the generic elements that split a centre of
    dimension k and the matrix blocks of an n-dimensional algebra, drawn
    from BLOCK_SEED in that order, once per shape; read-only."""
    rng = np.random.default_rng(BLOCK_SEED)
    weights = tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d)
                    for d in (k, n))
    for w in weights:
        w.flags.writeable = False
    return weights


@dataclass(frozen=True, eq=False)
class Blocks:
    """The algebra as a direct sum of matrix blocks, M = (+)_i M_{d_i}.

    central[i] holds the coefficients of the minimal central projection z_i
    and sizes[i] = d_i, ascending, so the one-dimensional blocks (the
    characters) come first; each character is in closed form,
    chi_i(e_s) = phi(e_s z_i) / phi(z_i), and only the blocks of size 2 or
    more come from an eigensolve. rho_i is an irreducible
    *-representation: the star becomes the matrix adjoint. to_blocks maps
    coefficients to the concatenated row-major entries of rho_i(x); it is
    square, since sum_i d_i^2 = n, and from_blocks is its inverse. Every
    tracial weight is sum_i c_i tr rho_i with c_i = weight(z_i) / d_i.
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

    @cached_property
    def _runs(self) -> tuple:
        """(d, count, start, end) for each block size d, ascending: the
        count blocks of size d fill entries[start:end] of the concatenated
        entries. Laid out once per Blocks."""
        runs, start = [], 0
        for d in sorted(set(self.sizes)):
            k = self.sizes.count(d)
            runs.append((d, k, start, start + k * d * d))
            start += k * d * d
        return tuple(runs)

    def matrices(self, coeffs) -> list:
        """rho_i(x) in block order, batched over the leading axes of coeffs:
        one (..., count, d, d) array for the count blocks of each size d.
        An infinite coefficient times a zero of to_blocks gives NaN there,
        silently, so that the blocks of x are NaN and not an error."""
        with np.errstate(invalid="ignore"):
            entries = np.asarray(coeffs, dtype=complex) @ self.to_blocks.T
        lead = entries.shape[:-1]
        return [entries[..., a:b].reshape(lead + (k, d, d))
                for d, k, a, b in self._runs]

    def hs(self, a: np.ndarray, b: np.ndarray):
        """Hilbert-Schmidt inner product of two block-diagonal matrices as
        operators on L^2(G), where block i appears d_i times; batched over
        the leading axes."""
        return np.sum(np.conj(a) * (self.multiplicity[:, None] * b),
                      axis=(-2, -1))

    def coeffs_of_diag(self, mat: np.ndarray) -> np.ndarray:
        """Coefficients of the element whose blocks are the diagonal blocks
        of mat, batched over the leading axes; entries outside them are
        ignored."""
        rows, cols = self._diag_index
        return (self.from_blocks @ mat[..., rows, cols, None])[..., 0]

    def weights(self, weight) -> np.ndarray:
        """c_i = weight(z_i) / d_i, one real value per block."""
        return np.real(self.central @ weight) / np.asarray(self.sizes)

    def trace_form(self, c) -> np.ndarray:
        """The functional sum_i c_i tr rho_i as a row over the basis."""
        rows, cols = self._diag_index
        return np.repeat(c, self.sizes) @ self.to_blocks[rows == cols]

    @cached_property
    def choices(self) -> tuple:
        """(h0, directions, unknowns) over every nonzero choice of one
        projection per block, in itertools.product order: 0 or 1 on a block
        of size 1; 0, 1 or a rank-one (1 + n.sigma)/2 on a block of size 2.
        Choice c is h0[c] + n @ directions[c, :unknowns[c]], affine in the
        unit Bloch vectors n: three rows per rank-one block in block order,
        then zero rows. h0 sums the options in block order from 0, as the
        Python sum does; built once per algebra."""
        if max(self.sizes) > 2:
            raise QgharmError(
                f"a block of size {max(self.sizes)} has projections of rank "
                "between 1 and its size minus 1; only blocks of size 1 and 2 "
                "are enumerated")
        units = self.from_blocks.T          # row j: the matrix unit of entry j
        zero = np.zeros(len(units), dtype=complex)
        options, bloch, start = [], [], 0
        for d in self.sizes:
            e = units[start:start + d * d]
            start += d * d
            one = e[0] + e[3] if d == 2 else e[0]
            options.append(np.array([zero, one, 0.5 * one][:d + 1]))
            if d == 2:
                bloch.append(np.array([0.5 * (e[1] + e[2]),
                                       0.5j * (e[2] - e[1]),
                                       0.5 * (e[0] - e[3])]))
        # each block's option per choice; the first choice is zero everywhere
        pick = np.indices([len(o) for o in options]).reshape(
            len(options), -1)[:, 1:]
        h0 = np.zeros((pick.shape[1], len(units)), dtype=complex)
        for option, at in zip(options, pick):
            h0 += option[at]
        rank_one = pick[np.array(self.sizes) == 2] == 2
        slot = 3 * (np.cumsum(rank_one, axis=0) - rank_one)
        dirs = np.zeros((len(h0), 3 * len(bloch), len(units)), dtype=complex)
        for vectors, on, at in zip(bloch, rank_one, slot):
            c = np.flatnonzero(on)
            dirs[c[:, None], at[c, None] + np.arange(3)] = vectors
        return h0, dirs, 3 * rank_one.sum(axis=0)


def _wedderburn(g: "FiniteQuantumGroup") -> Blocks:
    """Blocks of g from its centre, characters in closed form, and a
    Cholesky factor of the Gram matrix and seeded generic elements for the
    matrix blocks.

    The centre is the null space of x -> [x, e_j]. Multiplication by a
    generic self-adjoint central element (complex random weights) has the
    minimal central projections as eigenvectors, and tr L_{z_i} = d_i^2.
    A block of size 1 is a character: e_s z_i = chi_i(e_s) z_i, so
    chi_i(e_s) = phi(e_s z_i) / phi(z_i), one product with Q for every
    character. It is read at z_i z_i*, equal to z_i in exact arithmetic,
    where an error of the eigensolve in z_i enters only at second order.
    On a block of size d >= 2, right multiplication by z_i y, y generic
    self-adjoint, is self-adjoint for the Haar inner product (the state is
    tracial); its top eigenspace is a minimal left ideal M e of block i,
    and rho_i is left multiplication on it in an orthonormal basis. One
    batched eigh serves every matrix block, and none runs on a commutative
    algebra. The representations and their gates are built once per block
    size. Raises AxiomFailure unless the block count equals the centre
    dimension, sum d_i^2 = n, the state is faithful on every character,
    every minimal left ideal has the dimension of its block, the rho_i are
    *-homomorphisms within 1e-10, and they reproduce the Haar state.
    """
    n = g.dim

    def generic_self_adjoint(basis: np.ndarray, weights) -> np.ndarray:
        z = basis @ weights
        return z + g.star_of(z)

    comm = (g.mult - g.mult.transpose(1, 0, 2)).reshape(n, n * n).T
    _, s, vh = np.linalg.svd(comm, full_matrices=False)
    centre = vh[int(np.sum(s > 1e-10 * np.linalg.norm(g.mult))):].conj().T
    k = centre.shape[1]
    if k == 0:
        raise AxiomFailure("the algebra has no centre, not even its unit")
    centre_weights, block_weights = _block_weights(k, n)
    lz = np.einsum("i,ikj->kj", generic_self_adjoint(centre, centre_weights),
                   g.left_regular)
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

    # the characters, as an (s, block, 1, 1) stack
    chars = sizes.count(1)
    z = g.multiply(central[:chars], g.star_of(central[:chars]))
    mass = z @ g.haar
    if not np.all(mass.real > 1e-8 * _maxabs(mass)):
        raise AxiomFailure(f"the state is not faithful: phi(z_i) = "
                           f"{min(mass.real):.3e} on a character")
    reps = {1: ((g.q_matrix @ z.T) / mass).reshape(n, chars, 1, 1)}
    if chars < len(sizes):
        # the matrix blocks, each from a minimal left ideal, in one eigh
        chol = np.linalg.cholesky(0.5 * (g.gram + g.gram.conj().T))
        to_gns = np.linalg.inv(chol).conj().T  # columns orthonormal for <x, y>
        y = generic_self_adjoint(np.eye(n), block_weights)
        # the right multiplications by every z_i y as one stack
        right = np.einsum("is,jsk->ikj", g.multiply(central[chars:], y),
                          g.mult)
        herm = chol.conj().T @ right @ to_gns
        w, vecs = np.linalg.eigh(0.5 * (herm + herm.conj().swapaxes(-1, -2)))
        top = w[np.arange(len(w)), np.argmax(np.abs(w), axis=1)][:, None]
        ideal = np.abs(w - top) <= 1e-8 * np.abs(top)
        dims = np.sum(ideal, axis=1)
        for d, dim in zip(sizes[chars:], dims):
            if dim != d:
                raise AxiomFailure(f"a minimal left ideal of a block of size "
                                   f"{d} has dimension {dim}")
        for d in sorted(set(sizes[chars:])):
            at = np.flatnonzero(np.asarray(sizes[chars:]) == d)
            cols = np.nonzero(ideal[at])[1].reshape(len(at), 1, d)
            u = to_gns @ np.take_along_axis(vecs[at], cols, axis=2)
            reps[d] = np.einsum("cka,skj,cjb->scab", (g.gram @ u).conj(),
                                g.left_regular, u)
    # the gates once per block size, each on an (s, block, a, b) stack over
    # the blocks of that size, characters included
    hom = star = 0.0
    for r in reps.values():
        hom = max(hom, _maxabs(np.einsum("scab,tcbe->stcae", r, r)
                               - np.einsum("stu,ucae->stcae", g.mult, r)))
        star = max(star, _maxabs(
            np.einsum("us,ucab->scba", g.star, r).conj() - r))
    parts = [r.reshape(n, -1).T for r in reps.values()]
    if max(hom, star) > 1e-10:
        raise AxiomFailure(f"block representations fail: homomorphism "
                           f"{hom:.3e}, star {star:.3e}")
    to_blocks = np.concatenate(parts)
    blocks = Blocks(central=central, sizes=sizes, to_blocks=to_blocks,
                    from_blocks=np.linalg.inv(to_blocks))
    gap = _maxabs(blocks.trace_form(blocks.weights(g.haar)) - g.haar)
    if gap > 1e-10:
        raise AxiomFailure(f"blocks miss the Haar state by {gap:.3e}")
    return blocks


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

def _maxabs(a: np.ndarray) -> float:
    # the array method skips np.max's Python-level dispatch
    return float(np.abs(a).max()) if a.size else 0.0


def _ratio(lhs, rhs):
    """lhs / rhs; 0 where both are 0, inf where only rhs is, and NaN where
    rhs is NaN, as it is wherever x or y has a NaN or infinite coefficient."""
    out = np.where(lhs == 0, 0.0, np.inf)
    return np.divide(lhs, rhs, out=out, where=~(rhs <= 0))


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """The real part of a as a view when a is complex and every imaginary
    part is exactly 0, so that a certificate on real data runs in real
    arithmetic; a itself otherwise, so no imaginary part is dropped."""
    # the dtype test and the array method skip np.*'s Python-level dispatch
    if a.dtype.kind == "c" and not a.imag.any():
        return a.real
    return a


def _on_two_legs(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """[i, j, k] = sum_{u, v} a[i, u] a[j, v] t[u, v, k]: the matrix a
    applied to both first legs of an (n, n, n) tensor."""
    return a @ (a @ t.reshape(len(a), -1)).reshape(t.shape)


def verify_axioms(g: FiniteQuantumGroup, tol: float = 1e-10) -> Check:
    """Check the Hopf *-algebra and Haar axioms; every residual must be <= tol.
    The residuals are evaluated once per g; each record holds a copy."""
    return check("axioms", "hopf-star-algebra-axioms", g._axiom_residuals, tol)


# The laws of transposed(g), each with the law of g that it re-indexes: the
# product and the coproduct swap, and so do unit and counit. The
# homomorphism law of the new Delta on (i, j, p, q) is that of g on
# (q, p, i, j), and the new S^2 is (S^2)^T.
_TRANSPOSED_LAWS = {"associativity": "coassociativity", "unit": "counit",
                    "coassociativity": "associativity", "counit": "unit",
                    "delta_homomorphism": "delta_homomorphism",
                    "antipode_squared": "antipode_squared"}


def _axiom_residuals(g: FiniteQuantumGroup) -> dict:
    """The residual of each law. The structure tensors and the Q and Gram
    matrices enter through _real_if_exact: a real one, as on the catalog,
    is checked in real arithmetic, and one with any nonzero imaginary part
    in complex arithmetic as stored. The stored dtype stays complex, since
    storing real tensors moves the Wedderburn gauge of a matrix block and
    with it the last digits of the L^p documents.

    A group that transposed made from a group with evaluated residuals
    takes the laws of _TRANSPOSED_LAWS from them and evaluates the rest:
    those that read its own star, state, Q or Gram matrix, delta_unital (on
    it, the multiplicativity of the source's counit) and the antipode law
    (on it, the source's law for S^-1 and the opposite coproduct, equal to
    the source's only through S^2 = 1). So the n^5 and n^6 laws run once
    per chain of transposes."""
    n = g.dim
    m, c3, unit, counit, s, star, phi = (_real_if_exact(a) for a in (
        g.mult, g.comult3, g.unit, g.counit, g.antipode, g.star, g.haar))
    m_out, c_in = m.reshape(n * n, n), c3.reshape(n, n * n)
    eye = np.eye(n)
    shared = vars(g).get("_inherited") or _structure_laws(m, c3, unit,
                                                          counit, s)
    res = {law: shared[law] for law in
           ("associativity", "unit", "coassociativity", "counit")}
    res["delta_unital"] = _maxabs(c3 @ unit - np.outer(unit, unit))
    res["delta_homomorphism"] = shared["delta_homomorphism"]
    res["delta_star_compatibility"] = _maxabs(
        c3 @ star - _on_two_legs(star, np.conj(c3)))

    # antipode axiom: m(S x id)Delta = m(id x S)Delta = 1 eps
    anti_l = m_out.T @ (s @ c_in).reshape(n * n, n)
    anti_r = m_out.T @ (s @ c3).reshape(n * n, n)
    target = np.outer(unit, counit)
    res["antipode"] = max(_maxabs(anti_l - target), _maxabs(anti_r - target))
    res["antipode_squared"] = shared["antipode_squared"]

    # star laws: involution, and (e_i e_j)* = e_j* e_i*
    res["star_involution"] = _maxabs(star @ np.conj(star) - eye)
    res["star_antimultiplicative"] = _maxabs(
        np.conj(m) @ star.T - _on_two_legs(star.T, m).transpose(1, 0, 2))

    # Haar state
    res["haar_left_invariance"] = _maxabs(phi @ c3 - np.outer(unit, phi))
    res["haar_right_invariance"] = _maxabs((phi @ c_in).reshape(n, n)
                                           - np.outer(unit, phi))
    # in the stored dtype: a real dot product sums in another order, and
    # on s3-function reads 0 where this reads 1.1e-16
    res["haar_normalized"] = abs(complex(g.haar @ g.unit) - 1.0)

    gram = _real_if_exact(g.gram)
    res["gram_hermitian"] = _maxabs(gram - gram.conj().T)
    herm = 0.5 * (gram + gram.conj().T)
    eigs = np.linalg.eigvalsh(herm)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    res["positivity"] = max(0.0, -lam_min)
    floor = 1e-8 * max(lam_max, 1e-300)
    res["faithfulness"] = 0.0 if lam_min > floor else max(floor - lam_min, floor)

    q = _real_if_exact(g.q_matrix)
    res["traciality"] = _maxabs(q - q.T)
    return res


def _structure_laws(m, c3, unit, counit, s) -> dict:
    """The laws of _TRANSPOSED_LAWS on the tensors as _axiom_residuals
    passes them."""
    n = len(unit)
    m_in, m_out = m.reshape(n, n * n), m.reshape(n * n, n)
    c_in, c_out = c3.reshape(n, n * n), c3.reshape(n * n, n)
    eye = np.eye(n)
    res = {}

    # algebra laws, as [i, j, k, m] tensors; a vector times an (n, n, n)
    # tensor contracts its middle axis
    assoc_r = np.tensordot(m, m, axes=([2], [1])).transpose(2, 0, 1, 3)
    res["associativity"] = _maxabs((m_out @ m_in).reshape(n, n, n, n) - assoc_r)
    res["unit"] = max(_maxabs((unit @ m_in).reshape(n, n) - eye),
                      _maxabs(unit @ m - eye))

    # coalgebra laws: (Delta x i)Delta and (i x Delta)Delta as (n,n,n,n) tensors
    rhs = np.tensordot(c3, c3, axes=([1], [2])).transpose(0, 2, 3, 1)
    res["coassociativity"] = _maxabs((c_out @ c_in).reshape(n, n, n, n) - rhs)
    res["counit"] = max(_maxabs((counit @ c_in).reshape(n, n) - eye),
                        _maxabs(counit @ c3 - eye))
    res["delta_homomorphism"] = _delta_homomorphism(m, c3)
    res["antipode_squared"] = _maxabs(s @ s - eye)
    return res


def _delta_homomorphism(m: np.ndarray, c3: np.ndarray) -> float:
    """Delta(e_i) Delta(e_j) = Delta(e_i e_j) as one (n^2, n^2) @ (n^2, n^2)
    product, n^6 work and n^4 memory. With C = comult3 and M = mult, the
    left side at [(i, p), (j, q)] is sum_{b, c} U1[(i, p), (b, c)]
    U2[(b, c), (j, q)], where U1 = sum_a C[a, b, i] M[a, c, p] contracts
    the first legs and U2 = sum_d C[c, d, j] M[b, d, q] the second."""
    n = len(m)
    u1 = (c3.reshape(n, -1).T @ m.reshape(n, -1)).reshape(n, n, n, n)
    u2 = (m.transpose(1, 0, 2).reshape(n, -1).T
          @ c3.transpose(1, 0, 2).reshape(n, -1)).reshape(n, n, n, n)
    lhs = (u1.transpose(1, 3, 0, 2).reshape(n * n, n * n)
           @ u2.transpose(0, 2, 3, 1).reshape(n * n, n * n))
    rhs = (m.reshape(n * n, n) @ c3.reshape(n * n, n).T).reshape(
        n, n, n, n).transpose(0, 2, 1, 3)
    return _maxabs(lhs.reshape(n, n, n, n) - rhs)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_function_algebra(group: CayleyTable, name: Optional[str] = None) -> FiniteQuantumGroup:
    """Functions on a finite group: pointwise product, Delta f(s,t) = f(st)."""
    qg = _function_algebra(group, name)
    _accept(qg)
    return qg


def build_group_algebra(group: CayleyTable, name: Optional[str] = None) -> FiniteQuantumGroup:
    """Group algebra, the transposed function algebra: u_g u_h = u_{gh},
    Delta(u_g) = u_g x u_g, and phi = [g = e], the counit of C(G)."""
    fn = _function_algebra(group)
    qg = transposed(fn, fn.counit, name)
    _accept(qg)
    return qg


def _function_algebra(group: CayleyTable, name: Optional[str] = None) -> FiniteQuantumGroup:
    """The tensors of C(G) for a validated table, before the axiom gate."""
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
    return FiniteQuantumGroup(
        mult=mult,
        unit=np.ones(n),
        comult=comult,
        counit=counit,
        antipode=antipode,
        star=np.eye(n),
        haar=np.full(n, 1.0 / n),
        name=name,
    )


def transposed(g: FiniteQuantumGroup, haar, name: Optional[str]) -> FiniteQuantumGroup:
    """The linear dual of g, its structure tensors transposed: product and
    coproduct swap (the new coproduct is the flipped product), so do unit
    and counit; the antipode is S^T and the star (conj(star) S)^T. haar is
    the state of the result; the caller puts it to the axiom gate. When
    g's axiom residuals are already evaluated, the result keeps those of
    _TRANSPOSED_LAWS as its own: its tensors are g's, so each such law
    reads the same entries as a law of g, in another order."""
    qg = FiniteQuantumGroup(
        mult=g.comult3, unit=g.counit,
        comult=g.mult.transpose(1, 0, 2).reshape(-1, g.dim), counit=g.unit,
        antipode=g.antipode.T, star=(np.conj(g.star) @ g.antipode).T,
        haar=haar, name=name)
    checked = vars(g).get("_axiom_residuals")
    if checked is not None:
        vars(qg)["_inherited"] = {law: checked[source] for law, source
                                  in _TRANSPOSED_LAWS.items()}
    return qg


def build_kac_paljutkin() -> FiniteQuantumGroup:
    """The 8-dimensional quantum group that is neither commutative nor
    cocommutative (Kac and Paljutkin), with every tensor written in closed
    form on the basis e(a, b, c) = x^a y^b z^c, a, b, c in {0, 1} (a dot
    stands for the tensor sign):

        product    x^2 = y^2 = 1,  xy = yx,  z x^a y^b = x^b y^a z,  z^2 = t,
        coproduct  Delta(x^a y^b) = x^a y^b . x^a y^b,
                   Delta(x^a y^b z) = (x^a y^b . x^a y^b) J (z.z),
        antipode   S(x^a y^b) = x^a y^b,  S(x^a y^b z) = x^b y^a z,
        star       (x^a y^b)* = x^a y^b,  (x^a y^b z)* = t x^b y^a z,

    where t = (1 + x + y - xy) / 2 and J = (1.1 + 1.x + y.1 - y.x) / 2.
    Both read one table of weights w(u, v), -1/2 at u = v = 1 and 1/2
    elsewhere: t = sum w x^u y^v and J = sum w y^u . x^v, so
    Delta(x^a y^b z) puts w(u, v) at e(a, b + u, 1) . e(a + v, b, 1). The
    counit is 1 on every word, and the Haar state
    phi(x^a y^b z^c) = [a = b = c = 0] is the unit's coefficient row. The
    axiom verifier at 1e-12, which certifies phi as an invariant faithful
    state, plus the failure of commutativity and cocommutativity certifies
    the construction: up to isomorphism there is only one such quantum
    group of dimension 8.
    """
    n = 8

    def e(a: int, b: int, c: int = 0) -> int:
        return a % 2 + 2 * (b % 2) + 4 * (c % 2)

    # (u, v, w(u, v)): the terms of t and of J
    halves = ((0, 0, 0.5), (1, 0, 0.5), (0, 1, 0.5), (1, 1, -0.5))
    mult, comult = np.zeros((2, n, n, n))
    antipode, star = np.zeros((2, n, n))
    for a, b in itertools.product(range(2), repeat=2):
        comult[e(a, b), e(a, b), e(a, b)] = 1.0
        antipode[e(a, b), e(a, b)] = star[e(a, b), e(a, b)] = 1.0
        antipode[e(b, a, 1), e(a, b, 1)] = 1.0
        for u, v, w in halves:
            comult[e(a, b + u, 1), e(a + v, b, 1), e(a, b, 1)] = w
            star[e(b + u, a + v, 1), e(a, b, 1)] = w
        # x^a y^b and x^a y^b z times x^a2 y^b2 z^c2
        for a2, b2, c2 in itertools.product(range(2), repeat=3):
            mult[e(a, b), e(a2, b2, c2), e(a + a2, b + b2, c2)] = 1.0
            if not c2:
                mult[e(a, b, 1), e(a2, b2), e(a + b2, b + a2, 1)] = 1.0
                continue
            for u, v, w in halves:
                mult[e(a, b, 1), e(a2, b2, 1), e(a + b2 + u, b + a2 + v)] = w

    unit = np.eye(n)[e(0, 0)]
    qg = FiniteQuantumGroup(
        mult=mult, unit=unit, comult=comult.reshape(n * n, n),
        counit=np.ones(n), antipode=antipode, star=star, haar=unit,
        name="kac-paljutkin")
    _accept(qg, tol=1e-12)
    if is_cocommutative(qg):
        raise AxiomFailure("presented data is cocommutative")
    if is_commutative(qg):
        raise AxiomFailure("presented data is commutative")
    return qg


def _accept(qg: FiniteQuantumGroup, tol: float = 1e-12,
            role: str = "construction") -> None:
    report = verify_axioms(qg, tol=tol)
    if not report.holds:
        raise AxiomFailure(f"{role} fails axioms: {report.failing()}")


# max-abs gap within which a product or coproduct counts as symmetric
SYMMETRY_TOL = 1e-12


def is_commutative(g: FiniteQuantumGroup) -> bool:
    return _maxabs(g.mult - g.mult.transpose(1, 0, 2)) <= SYMMETRY_TOL


def is_cocommutative(g: FiniteQuantumGroup) -> bool:
    return _maxabs(g.comult3 - g.comult3.transpose(1, 0, 2)) <= SYMMETRY_TOL


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _encode_array(a: np.ndarray) -> list:
    """Nested lists with complex entries as [re, im] pairs."""
    if a.ndim == 1:
        return [[float(v.real), float(v.imag)] for v in a]
    return [_encode_array(row) for row in a]
