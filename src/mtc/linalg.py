"""Dense exact matrices over a CycField and the linear-algebra kernel:
row reduction with deterministic pivoting, right-hand solves, kernel bases,
growing spans with canonical reduction modulo a subspace, minimal
polynomials, and Kronecker products.

The external contract is dense row-major, except for two sparse forms:
`sparse_kernel` takes the sparse rows {col: Scalar} that the elimination
engine works on (no other module sees its pivots), and a column function
j -> [(row, Scalar)] is read by `columns_matrix`, its dense view, and by
`_step`, which applies it to a list of sparse columns in one call.  The
product, the Kronecker product and `_step` visit only nonzero entries.
One sparse row update serves `_rref` and `IncrementalSpan`, and one
promotion rule puts the operands of a product or a solve over a common
field.
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
        a, b = _one_field(self, other)
        f = a.field
        n, k, m = a.rows, a.cols, b.cols
        ad, bd = a.data, b.data
        out = [f.zero()] * (n * m)
        # Gustavson's row-wise product, scanning the operand with fewer
        # cells; the other one's rows (or columns) become nonzero lists the
        # first time a nonzero of the scanned operand needs them.  Either
        # way entry (i, j) sums a[i, t] * b[t, j] in increasing t.
        if n <= m:
            brows = [None] * k
            for i in range(n):
                orow = i * m
                for t, x in enumerate(ad[i * k:(i + 1) * k]):
                    if not any(x.num):
                        continue
                    brow = brows[t]
                    if brow is None:
                        brow = brows[t] = [
                            (j, y) for j, y in enumerate(bd[t * m:(t + 1) * m])
                            if any(y.num)]
                    for j, y in brow:
                        out[orow + j] = out[orow + j] + x * y
        else:
            acols = [None] * k
            for j in range(m):
                for t, y in enumerate(bd[j::m]):
                    if not any(y.num):
                        continue
                    acol = acols[t]
                    if acol is None:
                        acol = acols[t] = [
                            (i * m, x) for i, x in enumerate(ad[t::k])
                            if any(x.num)]
                    for orow, x in acol:
                        out[orow + j] = out[orow + j] + x * y
        return Matrix(f, n, m, out)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for a, b in zip(self.data, other.data))

    def is_zero(self):
        return not any(any(x.num) for x in self.data)

    def transpose(self):
        out = Matrix.zeros(self.field, self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[j * self.rows + i] = self.data[i * self.cols + j]
        return out

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


def _one_field(a, b):
    """a and b over one field: the extension when either is extended."""
    f = a.field if a.field.extended or not b.field.extended else b.field
    return a.promote(f), b.promote(f)


def kron(a, b):
    """Kronecker product with lexicographic index convention
    (i_A, i_B) -> i_A * rows_B + i_B."""
    a, b = _one_field(a, b)
    f = a.field
    r, c = a.rows * b.rows, a.cols * b.cols
    out = [f.zero()] * (r * c)
    # b's nonzeros as offsets into the block of one entry of a
    bnz = [((ib // b.cols) * c + ib % b.cols, y) for ib, y in enumerate(b.data)
           if any(y.num)]
    for ka, x in enumerate(a.data):
        if not any(x.num):
            continue
        ia, ja = divmod(ka, a.cols)
        base = ia * b.rows * c + ja * b.cols
        for off, y in bnz:
            out[base + off] = x * y
    return Matrix(f, r, c, out)


def _matrix_colfn(matrix):
    """Column function j -> [(row, Scalar)] of a dense matrix, nonzero
    entries only, read on the first call (a box a word does not use)."""
    cols = {}

    def col(j):
        if not cols:
            cols[None] = []  # the columns are read
            for k, v in enumerate(matrix.data):
                if any(v.num):
                    i, c = divmod(k, matrix.cols)
                    cols.setdefault(c, []).append((i, v))
        return cols.get(j, [])
    return col


def columns_matrix(field, rows, ncols, col):
    """The dense rows x ncols matrix of the column function col: j ->
    [(row, Scalar)]; the inverse of `_matrix_colfn`."""
    out = [field.zero()] * (rows * ncols)
    for j in range(ncols):
        for i, v in col(j):
            out[i * ncols + j] = v
    return Matrix(field, rows, ncols, out)


def _step(cols, colfn, din, dout, post):
    """The sparse columns `cols` under id_pre (x) f (x) id_post, where f is
    the din -> dout map of `colfn`; neither the columns nor f's columns
    hold a zero entry."""
    first = next((v for c in cols for v in c.values()), None)
    # 1 in Q(z_N) times an entry of f is that entry; a 1 of the D-extension
    # would lift an entry of Q(z_N) to it, so it multiplies
    one = None if first is None else (1,) + (0,) * (first.field.phi - 1)
    out = []
    for col in cols:
        acc, summed = {}, []
        for flat, val in col.items():
            top, q = divmod(flat, post)
            p, sub = divmod(top, din)
            base = p * dout * post + q
            unit = val.den == 1 and val.num == one
            for row, w in colfn(sub):
                pos = base + row * post
                v = w if unit else val * w
                if pos in acc:
                    acc[pos] = acc[pos] + v
                    summed.append(pos)
                else:
                    acc[pos] = v
        # a product of nonzero scalars is nonzero: only a sum can cancel
        for pos in summed:
            if pos in acc and not any(acc[pos].num):
                del acc[pos]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# sparse-row elimination engine

def _to_sparse_rows(m):
    c = m.cols
    return [{j: x for j, x in enumerate(m.data[i * c:(i + 1) * c])
             if any(x.num)} for i in range(m.rows)]


def _sub_row(row, f, pivot_items, skip=None):
    """row -= f * pivot row in place, dropping the entries that cancel.
    `pivot_items` are the pivot row's (index, value) pairs; the pivot column
    `skip`, already popped from row, is left out."""
    for j, v in pivot_items:
        if j == skip:
            continue
        cur = row.get(j)
        nv = (cur - f * v) if cur is not None else -(f * v)
        if not any(nv.num):
            row.pop(j, None)
        else:
            row[j] = nv


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
            _sub_row(rows[r], f, prow_items, col)
            if carry is not None:
                _sub_row(carry[r], f, carry_items)
    return pivots


def rank(m):
    rows = _to_sparse_rows(m)
    return len(_rref(rows, m.cols))


def solve_right(a, b):
    """Any X with A X = B, or raise NoSolution.  Deterministic: free
    variables are set to zero under leftmost-pivot / first-nonzero-row
    reduction."""
    assert a.rows == b.rows, "A and B must have the same number of rows"
    a, b = _one_field(a, b)
    f = a.field
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
    return [Matrix(a.field, a.cols, 1, vec)
            for vec in sparse_kernel(_to_sparse_rows(a), a.cols, a.field)]


def sparse_kernel(rows, ncols, field):
    """Basis of the kernel of the matrix whose rows are the sparse rows
    {col: Scalar} given, with no zero entries (they are reduced in place),
    as dense coordinate lists ordered by free column."""
    pivot_cols = {c: r for r, c in _rref(rows, ncols)}
    zero, one = field.zero(), field.one()
    basis = []
    for fc in range(ncols):
        if fc not in pivot_cols:
            vec = [zero] * ncols
            vec[fc] = one
            for c, r in pivot_cols.items():
                v = rows[r].get(fc)
                if v is not None:
                    vec[c] = -v
            basis.append(vec)
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
        v = {i: x for i, x in enumerate(vec.data) if any(x.num)}
        for piv in sorted(self.rows):
            if piv in v:
                _sub_row(v, v.pop(piv), self.rows[piv].items(), piv)
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
                _sub_row(r, r.pop(piv), row.items(), piv)
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
