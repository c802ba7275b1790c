"""Dense exact matrices over a CycField and the linear-algebra kernel:
row reduction with deterministic pivoting, right-hand solves, kernel bases,
growing spans with canonical reduction modulo a subspace, minimal
polynomials, Kronecker products, and partial traces.

The external contract is dense row-major; the elimination engine works on
sparse rows internally, and no other module sees its rows or pivots.
"""

from .scalars import Scalar


class NoSolution(Exception):
    """Raised when a linear system A X = B is inconsistent."""


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, data):
        assert len(data) == rows * cols, "entries length must be rows*cols"
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = list(data)

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zeros(field, rows, cols):
        z = field.zero()
        return Matrix(field, rows, cols, [z] * (rows * cols))

    @staticmethod
    def identity(field, n):
        m = Matrix.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            m.data[i * n + i] = one
        return m

    @staticmethod
    def from_rows(field, rows):
        r = len(rows)
        c = len(rows[0]) if rows else 0
        flat = []
        for row in rows:
            assert len(row) == c, "ragged rows"
            for x in row:
                flat.append(x if isinstance(x, Scalar) else field.from_rational(x))
        return Matrix(field, r, c, flat)

    @staticmethod
    def column(field, entries):
        return Matrix.from_rows(field, [[x] for x in entries])

    @staticmethod
    def row(field, entries):
        return Matrix.from_rows(field, [list(entries)])

    def copy(self):
        return Matrix(self.field, self.rows, self.cols, list(self.data))

    # -- access ----------------------------------------------------------
    def __getitem__(self, idx):
        i, j = idx
        return self.data[i * self.cols + j]

    def __setitem__(self, idx, val):
        i, j = idx
        self.data[i * self.cols + j] = val

    def row_list(self, i):
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col_list(self, j):
        return [self.data[i * self.cols + j] for i in range(self.rows)]

    def promote(self, field):
        """Re-embed into an extension of the base field."""
        if field is self.field:
            return self
        return Matrix(field, self.rows, self.cols, [field.promote(x) for x in self.data])

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.field, self.rows, self.cols,
                      [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.field, self.rows, self.cols,
                      [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self):
        return Matrix(self.field, self.rows, self.cols, [-a for a in self.data])

    def scale(self, s):
        return Matrix(self.field, self.rows, self.cols, [s * a for a in self.data])

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        assert self.cols == other.rows, "shape mismatch %sx%s * %sx%s" % (
            self.rows, self.cols, other.rows, other.cols)
        f = self.field if self.field.extended or not other.field.extended else other.field
        a = self.promote(f) if f is not self.field else self
        b = other.promote(f) if f is not other.field else other
        n, k, m = a.rows, a.cols, b.cols
        zero = f.zero()
        out = [zero] * (n * m)
        for i in range(n):
            arow = a.data[i * k:(i + 1) * k]
            orow = i * m
            for t in range(k):
                x = arow[t]
                if x.is_zero():
                    continue
                brow = b.data[t * m:(t + 1) * m]
                for j in range(m):
                    y = brow[j]
                    if not y.is_zero():
                        out[orow + j] = out[orow + j] + x * y
        return Matrix(f, n, m, out)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for a, b in zip(self.data, other.data))

    def is_zero(self):
        return all(x.is_zero() for x in self.data)

    def transpose(self):
        out = Matrix.zeros(self.field, self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[j * self.rows + i] = self.data[i * self.cols + j]
        return out

    def trace(self):
        assert self.rows == self.cols
        t = self.field.zero()
        for i in range(self.rows):
            t = t + self.data[i * self.cols + i]
        return t

    def hstack(self, *others):
        """Side-by-side concatenation with one or more blocks, in one pass."""
        blocks = (self,) + others
        assert all(b.rows == self.rows for b in blocks)
        data = []
        for i in range(self.rows):
            for b in blocks:
                data.extend(b.data[i * b.cols:(i + 1) * b.cols])
        return Matrix(self.field, self.rows, sum(b.cols for b in blocks), data)

    def vstack(self, *others):
        """Concatenation top to bottom with one or more blocks, in one pass."""
        blocks = (self,) + others
        assert all(b.cols == self.cols for b in blocks)
        data = []
        for b in blocks:
            data.extend(b.data)
        return Matrix(self.field, sum(b.rows for b in blocks), self.cols, data)

    def __str__(self):
        rows = []
        for i in range(self.rows):
            rows.append("[" + ", ".join(str(x) for x in self.row_list(i)) + "]")
        return "[" + ",\n ".join(rows) + "]"

    __repr__ = __str__


def kron(a, b):
    """Kronecker product with lexicographic index convention
    (i_A, i_B) -> i_A * rows_B + i_B."""
    f = a.field if a.field.extended or not b.field.extended else b.field
    a = a.promote(f) if f is not a.field else a
    b = b.promote(f) if f is not b.field else b
    r, c = a.rows * b.rows, a.cols * b.cols
    zero = f.zero()
    out = [zero] * (r * c)
    for ia in range(a.rows):
        for ja in range(a.cols):
            x = a.data[ia * a.cols + ja]
            if x.is_zero():
                continue
            base_i = ia * b.rows
            base_j = ja * b.cols
            for ib in range(b.rows):
                orow = (base_i + ib) * c + base_j
                brow = ib * b.cols
                for jb in range(b.cols):
                    y = b.data[brow + jb]
                    if not y.is_zero():
                        out[orow + jb] = x * y
    return Matrix(f, r, c, out)


def partial_trace_left(m, dim_traced, dim_kept):
    """Sum_i (<i| x I) M (|i> x I) for M acting on a product with the traced
    factor leftmost."""
    n = dim_traced * dim_kept
    assert m.rows == n and m.cols == n, "matrix must be (d*k)-square"
    out = Matrix.zeros(m.field, dim_kept, dim_kept)
    for a in range(dim_kept):
        for b in range(dim_kept):
            s = m.field.zero()
            for i in range(dim_traced):
                s = s + m.data[(i * dim_kept + a) * n + (i * dim_kept + b)]
            out.data[a * dim_kept + b] = s
    return out


def partial_trace_right(m, dim_kept, dim_traced):
    """Sum_i (I x <i|) M (I x |i>) for the traced factor rightmost."""
    n = dim_kept * dim_traced
    assert m.rows == n and m.cols == n
    out = Matrix.zeros(m.field, dim_kept, dim_kept)
    for a in range(dim_kept):
        for b in range(dim_kept):
            s = m.field.zero()
            for i in range(dim_traced):
                s = s + m.data[(a * dim_traced + i) * n + (b * dim_traced + i)]
            out.data[a * dim_kept + b] = s
    return out


# ---------------------------------------------------------------------------
# sparse-row elimination engine

def _to_sparse_rows(m):
    rows = []
    for i in range(m.rows):
        row = {}
        base = i * m.cols
        for j in range(m.cols):
            x = m.data[base + j]
            if not x.is_zero():
                row[j] = x
        rows.append(row)
    return rows


def _rref(rows, ncols, carry=None):
    """Reduced row echelon form in place.  Deterministic pivoting: leftmost
    pivot column, first (lowest index) row with a nonzero entry there.

    `carry` is an optional list of companion sparse rows (the augmented part)
    transformed alongside.  Returns the list of (pivot_row, pivot_col)."""
    pivots = []
    nrows = len(rows)
    used = [False] * nrows
    for col in range(ncols):
        prow = None
        for r in range(nrows):
            if not used[r] and col in rows[r]:
                prow = r
                break
        if prow is None:
            continue
        used[prow] = True
        pivots.append((prow, col))
        inv = rows[prow][col].inv()
        rows[prow] = {j: inv * v for j, v in rows[prow].items()}
        if carry is not None:
            carry[prow] = {j: inv * v for j, v in carry[prow].items()}
        prow_items = list(rows[prow].items())
        carry_items = list(carry[prow].items()) if carry is not None else None
        for r in range(nrows):
            if r == prow or col not in rows[r]:
                continue
            f = rows[r].pop(col)
            for j, v in prow_items:
                if j == col:
                    continue
                cur = rows[r].get(j)
                nv = (cur - f * v) if cur is not None else -(f * v)
                if nv.is_zero():
                    rows[r].pop(j, None)
                else:
                    rows[r][j] = nv
            if carry is not None:
                for j, v in carry_items:
                    cur = carry[r].get(j)
                    nv = (cur - f * v) if cur is not None else -(f * v)
                    if nv.is_zero():
                        carry[r].pop(j, None)
                    else:
                        carry[r][j] = nv
    return pivots


def rank(m):
    rows = _to_sparse_rows(m)
    return len(_rref(rows, m.cols))


def solve_right(a, b):
    """Any X with A X = B, or raise NoSolution.  Deterministic: free
    variables are set to zero under leftmost-pivot / first-nonzero-row
    reduction."""
    assert a.rows == b.rows, "A and B must have the same number of rows"
    f = a.field if a.field.extended or not b.field.extended else b.field
    a = a.promote(f) if f is not a.field else a
    b = b.promote(f) if f is not b.field else b
    rows = _to_sparse_rows(a)
    carry = _to_sparse_rows(b)
    pivots = _rref(rows, a.cols, carry)
    pivot_rows = {r for r, _ in pivots}
    for r in range(a.rows):
        if r not in pivot_rows and carry[r]:
            raise NoSolution("inconsistent system")
    x = Matrix.zeros(f, a.cols, b.cols)
    for r, c in pivots:
        for j, v in carry[r].items():
            x.data[c * b.cols + j] = v
    return x


def kernel_basis(a):
    """Basis of {x : A x = 0} as column vectors, ordered by free column."""
    rows = _to_sparse_rows(a)
    pivots = _rref(rows, a.cols)
    pivot_cols = {c: r for r, c in pivots}
    free_cols = [j for j in range(a.cols) if j not in pivot_cols]
    zero = a.field.zero()
    one = a.field.one()
    basis = []
    for fc in free_cols:
        vec = [zero] * a.cols
        vec[fc] = one
        for c, r in pivot_cols.items():
            v = rows[r].get(fc)
            if v is not None:
                vec[c] = -v
        basis.append(Matrix.column(a.field, vec))
    return basis


def invert(m):
    assert m.rows == m.cols
    # a singular square m leaves a zero RREF row whose carried row of the
    # (invertible) elimination is nonzero, so the solve itself fails
    try:
        return solve_right(m, Matrix.identity(m.field, m.rows))
    except NoSolution:
        raise NoSolution("matrix is singular")


class IncrementalSpan:
    """Maintains an RREF basis of a growing span of column vectors; add()
    returns True when the vector enlarged the span."""

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.rows = {}  # pivot index -> reduced sparse row {idx: Scalar}

    def _reduce(self, vec):
        v = {i: x for i, x in enumerate(vec.data) if not x.is_zero()}
        for piv in sorted(self.rows):
            if piv in v:
                f = v.pop(piv)
                for j, w in self.rows[piv].items():
                    if j == piv:
                        continue
                    nv = v.get(j, self.field.zero()) - f * w
                    if nv.is_zero():
                        v.pop(j, None)
                    else:
                        v[j] = nv
        return v

    def add(self, vec):
        v = self._reduce(vec)
        if not v:
            return False
        piv = min(v)
        inv = v[piv].inv()
        row = {j: inv * w for j, w in v.items()}
        for p, r in self.rows.items():
            if piv in r:
                f = r.pop(piv)
                for j, w in row.items():
                    if j == piv:
                        continue
                    nv = r.get(j, self.field.zero()) - f * w
                    if nv.is_zero():
                        r.pop(j, None)
                    else:
                        r[j] = nv
        self.rows[piv] = row
        return True

    def contains(self, vec):
        return not self._reduce(vec)

    def reduce(self, vec):
        """The canonical representative of vec modulo the span: vec minus
        the span element that agrees with it at every pivot, as a column."""
        out = Matrix.zeros(self.field, self.dim, 1)
        for j, w in self._reduce(vec).items():
            out.data[j] = w
        return out

    def free_indices(self):
        """Coordinates that are not pivots; their unit vectors map to a
        basis of the quotient by the span."""
        return [j for j in range(self.dim) if j not in self.rows]

    @property
    def rank(self):
        return len(self.rows)

    def basis_vectors(self):
        out = []
        for piv in sorted(self.rows):
            m = Matrix.zeros(self.field, self.dim, 1)
            for j, w in self.rows[piv].items():
                m.data[j] = w
            out.append(m)
        return out


def minimal_polynomial(powers):
    """Monic minimal polynomial, coefficients low degree first, of an
    element given by the column vectors of its successive powers w^0, w^1,
    ...  The first power in the span of the lower ones fixes it; `powers` is
    consumed lazily up to that power."""
    span = None
    lower = []
    for v in powers:
        if span is None:
            span = IncrementalSpan(v.field, v.rows)
        if span.add(v):
            lower.append(v)
            continue
        sol = solve_right(lower[0].hstack(*lower[1:]), v)
        return [-x for x in sol.data] + [v.field.one()]
    raise ValueError("every given power is independent of the lower ones")


def rank_factor(m):
    """Rank factorization M = B A with inner dimension rank(M).

    B has independent columns (pivot columns of M), A is the RREF's nonzero
    rows.  Deterministic."""
    rows = _to_sparse_rows(m)
    pivots = _rref(rows, m.cols)
    r = len(pivots)
    zero = m.field.zero()
    a = Matrix.zeros(m.field, r, m.cols)
    for k, (prow, pcol) in enumerate(pivots):
        for j, v in rows[prow].items():
            a.data[k * m.cols + j] = v
    b = Matrix.zeros(m.field, m.rows, r)
    for k, (_, pcol) in enumerate(pivots):
        for i in range(m.rows):
            b.data[i * r + k] = m.data[i * m.cols + pcol]
    assert (b * a) == m
    return b, a
