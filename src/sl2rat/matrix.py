"""Exact matrices over Q(z): arithmetic, elimination, kernels, solving.

The library's one exact row reduction lives here, over any field whose
elements are falsy exactly at zero: `RatFunc` for `Mat`, `Fraction` for
`hyper`'s polynomial solutions.  `_forward` lets first-nonzero pivots clear
the rows below them and reports the parity of its row swaps, `_back_reduce`
reduces from the last pivot up, and `_kernel_basis` reads one vector per free
column.  `det` is the signed pivot product of `_forward`; `rref` is both
passes, and `rank`, `kernel`, `solve` and `inverse` read it.  All exact.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import SingularMatrix
from .poly import Poly
from .ratfunc import RatFunc, as_ratfunc

Entry = Union[RatFunc, Poly, int, Fraction]


class Mat:
    """Immutable rectangular matrix with RatFunc entries."""

    __slots__ = ("data",)

    def __init__(self, rows: Iterable[Iterable[Entry]]):
        data = tuple(tuple(as_ratfunc(e) for e in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrices must have at least one row and column")
        w = len(data[0])
        if any(len(r) != w for r in data):
            raise ValueError("ragged rows")
        self.data = data

    @classmethod
    def _of(cls, rows: Iterable[Iterable[RatFunc]]) -> "Mat":
        """A Mat from rows that are RatFunc by construction, with no coercion or check.

        Precondition: at least one row, every row of the same nonzero length,
        and every entry a `RatFunc`.  Results of Mat operations on Mats meet
        it; anything built from outside input goes through `Mat(...)`.
        """
        m = object.__new__(cls)
        m.data = tuple(tuple(row) for row in rows)
        return m

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Mat":
        if n < 1:
            return Mat([])  # raises the shape error of an empty matrix
        one, zero = RatFunc.one(), RatFunc.zero()
        return Mat._of([one if i == j else zero for j in range(n)] for i in range(n))

    @staticmethod
    def diag(entries: Sequence[Entry]) -> "Mat":
        n = len(entries)
        zero = RatFunc.zero()
        return Mat([[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def column(entries: Sequence[Entry]) -> "Mat":
        return Mat([[e] for e in entries])

    @staticmethod
    def row(entries: Sequence[Entry]) -> "Mat":
        return Mat([list(entries)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence[Entry]]) -> "Mat":
        return Mat([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    # -- structure ---------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.data)

    @property
    def ncols(self) -> int:
        return len(self.data[0])

    @property
    def shape(self) -> Tuple[int, int]:
        return self.nrows, self.ncols

    def __getitem__(self, ij: Tuple[int, int]) -> RatFunc:
        i, j = ij
        return self.data[i][j]

    def rows_list(self) -> List[List[RatFunc]]:
        return [list(r) for r in self.data]

    def col(self, j: int) -> Tuple[RatFunc, ...]:
        return tuple(row[j] for row in self.data)

    def columns(self) -> List[Tuple[RatFunc, ...]]:
        return [self.col(j) for j in range(self.ncols)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.data == other.data

    def __hash__(self) -> int:
        return hash(("Mat", self.data))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.data for e in row)

    def map(self, fn: Callable[[RatFunc], Entry]) -> "Mat":
        return Mat([[fn(e) for e in row] for row in self.data])

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Mat._of(
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)
        )

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Mat._of(
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)
        )

    def __neg__(self) -> "Mat":
        return self.map(lambda e: -e)

    def __mul__(self, other) -> "Mat":
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError(
                    f"dimension mismatch: ({self.nrows}x{self.ncols}) * ({other.nrows}x{other.ncols})"
                )
            cols = other.columns()
            return Mat._of([_dot(row, col) for col in cols] for row in self.data)
        scalar = as_ratfunc(other)
        return self.map(lambda e: e * scalar)

    def __rmul__(self, other) -> "Mat":
        scalar = as_ratfunc(other)
        return self.map(lambda e: scalar * e)

    def shifted(self, k: int) -> "Mat":
        """Entrywise shift automorphism z -> z + k."""
        if k == 0:
            return self
        return Mat._of([e.shifted(k) for e in row] for row in self.data)

    def transpose(self) -> "Mat":
        return Mat._of(zip(*self.data))

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product: block (i, j) is self[i,j] * other."""
        rows = []
        for i in range(self.nrows):
            for k in range(other.nrows):
                row = []
                for j in range(self.ncols):
                    s = self.data[i][j]
                    row.extend(s * e for e in other.data[k])
                rows.append(row)
        return Mat(rows)

    def hstack(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Mat._of(r1 + r2 for r1, r2 in zip(self.data, other.data))

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Mat":
        return Mat([[self.data[i][j] for j in cols] for i in rows])

    @staticmethod
    def block_diag(blocks: Sequence["Mat"]) -> "Mat":
        n = sum(b.nrows for b in blocks)
        m = sum(b.ncols for b in blocks)
        rows = [[RatFunc.zero()] * m for _ in range(n)]
        i0 = j0 = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    rows[i0 + i][j0 + j] = b.data[i][j]
            i0 += b.nrows
            j0 += b.ncols
        return Mat(rows)

    # -- elimination ---------------------------------------------------------------

    def rref(self) -> Tuple["Mat", Tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        rows = self.rows_list()
        pivots, _ = _forward(rows, self.ncols)
        _back_reduce(rows, pivots)
        return Mat._of(rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> List[Tuple[RatFunc, ...]]:
        """Basis of the right kernel, exact; one vector per free column."""
        R, pivots = self.rref()
        return _kernel_basis(R.data, pivots, self.ncols, RatFunc.zero(), RatFunc.one())

    def solve(self, rhs: "Mat") -> Optional["Mat"]:
        """Particular solution X of self @ X = rhs, or None when inconsistent.

        Free variables are set to zero.
        """
        if rhs.nrows != self.nrows:
            raise ValueError("shape mismatch")
        aug = self.hstack(rhs)
        R, pivots = aug.rref()
        nc = self.ncols
        if any(p >= nc for p in pivots):
            return None
        sol = [[RatFunc.zero()] * rhs.ncols for _ in range(nc)]
        for r, pc in enumerate(pivots):
            for k in range(rhs.ncols):
                sol[pc][k] = R.data[r][nc + k]
        return Mat._of(sol)

    def inverse(self) -> "Mat":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices are invertible")
        inv = self.solve(Mat.identity(self.nrows))
        if inv is None:
            raise SingularMatrix("matrix is singular over the function field")
        return inv

    def det(self) -> RatFunc:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        rows = self.rows_list()
        pivots, odd_swaps = _forward(rows, self.ncols)
        if len(pivots) < self.ncols:
            return RatFunc.zero()
        product = rows[0][0]
        for i in range(1, self.nrows):
            product = product * rows[i][i]
        return -product if odd_swaps else product

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and not self.det().is_zero()

    # -- presentation -----------------------------------------------------------------

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.data) + "]"

    def __repr__(self) -> str:
        return f"Mat({self.rows_list()!r})"

    def to_strings(self) -> List[List[str]]:
        return [[str(e) for e in row] for row in self.data]


def _dot(row: Sequence[RatFunc], col: Sequence[RatFunc]) -> RatFunc:
    acc = RatFunc.zero()
    for a, b in zip(row, col):
        if not (a.is_zero() or b.is_zero()):
            acc = acc + a * b
    return acc


def _forward(rows: List[list], ncols: int) -> Tuple[List[int], bool]:
    """Echelon form in place; the pivot columns and whether the row swaps were odd."""
    nr = len(rows)
    pivots: List[int] = []
    odd_swaps = False
    for c in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        found = next((i for i in range(r, nr) if rows[i][c]), None)
        if found is None:
            continue
        if found != r:
            rows[r], rows[found] = rows[found], rows[r]
            odd_swaps = not odd_swaps
        pivot_row = rows[r][c:]
        pivot = pivot_row[0]
        for i in range(r + 1, nr):
            f = rows[i][c]
            if f:
                rows[i][c:] = _minus_multiple(rows[i][c:], f / pivot, pivot_row)
        pivots.append(c)
    return pivots, odd_swaps


def _back_reduce(rows: List[list], pivots: Sequence[int]) -> None:
    """Reduce echelon rows in place, from the last pivot up: pivots 1, zeros above them."""
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        pivot = rows[r][c]
        pivot_row = rows[r][c:] = [e / pivot for e in rows[r][c:]]
        for i in range(r):
            f = rows[i][c]
            if f:
                rows[i][c:] = _minus_multiple(rows[i][c:], f, pivot_row)


def _kernel_basis(rows: Sequence[Sequence], pivots: Sequence[int], ncols: int, zero, one) -> List[tuple]:
    """The right kernel of reduced rows: one vector per free column, `one` there."""
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def _minus_multiple(row: Sequence, f, pivot_row: Sequence) -> list:
    """row - f * pivot_row, leaving the entries over zeros of pivot_row untouched."""
    return [a - f * b if b else a for a, b in zip(row, pivot_row)]


def mat_from_strings(rows: Sequence[Sequence[str]]) -> Mat:
    from .parser import parse_ratfunc

    return Mat([[parse_ratfunc(e) for e in row] for row in rows])
