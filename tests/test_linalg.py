"""The sparse elimination kernel against a second, dense route.

``dense_rref`` (in ``dense_oracle``), ``dense_solve`` and ``dense_project``
are the dense list-of-rows routines the sparse kernel replaced, kept as
oracles.  The reduced row echelon form is unique, so the two routes must
agree exactly, rows and pivots, on every input.
"""

import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfcyc import cli, cocyclic, cup, kaygun, linalg
from hopfcyc.cocyclic import CoalgebraOps, RelativeTensorSpace, build_coalgebra_instance
from hopfcyc.coefficients import (
    group_set_module_coalgebra,
    mc_conjugation_group,
    mc_graded_group,
    mc_trivial,
)
from hopfcyc.instances import GroupSetData, build_group_algebra, cyclic_group
from hopfcyc.linalg import (
    F0,
    F1,
    Quotient,
    columns,
    compose,
    mat_mul,
    mat_vec,
    nullspace,
    orbit_rref,
    rank,
    residual_nonzeros,
    rref,
    signed,
    solve,
)

import dense_oracle
from dense_oracle import as_dense, dense, dense_rref, eliminating_induced, eliminating_project, eliminating_reduce, sparse

F = Fraction
# 2^521 − 1 is prime and larger than the Hadamard bound of every minor of
# the integer matrices below, so a rank mod it is the rank over ℚ.
PRIME = 2**521 - 1

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


# -- the dense oracles ---------------------------------------------------------


def sparse_columns(m):
    """A dense matrix as sparse columns."""
    return [sparse(col) for col in zip(*m)]


def sparse_rows(m):
    return [sparse(row) for row in m]


def densify(rows, ncols):
    return [dense(row, ncols) for row in rows]


def dense_solve(a, b):
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rows, pivots = dense_rref([list(row) + [b[i]] for i, row in enumerate(a)])
    x = [F0] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = rows[r][-1]
    for i in range(nrows):
        if sum(a[i][j] * x[j] for j in range(ncols)) != b[i]:
            return None
    return x


def dense_project(q, v):
    v = list(v)
    for row, pc in zip(q.rows, q.pivots):
        if v[pc] != 0:
            f = v[pc]
            v = [x - f * y for x, y in zip(v, dense(row, q.ambient_dim))]
    return [v[c] for c in q.free]


def unit_vector_induced(src, op, tgt):
    """The induced matrix, as dense columns, through images of unit vectors
    under the dense ``mat_vec``, projected by the dense route."""
    return [
        dense_project(tgt, dense_oracle.mat_vec(op, dense(src.include({i: F1}), src.ambient_dim)))
        for i in range(src.dim)
    ]


def rank_mod_prime(m):
    rows = []
    for row in m:
        den = math.lcm(*(x.denominator for x in row))
        rows.append([int(x * den) % PRIME for x in row])
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, PRIME)
        rows[r] = [x * inv % PRIME for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % PRIME for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


# -- random sparse rational matrices -------------------------------------------

entries = st.one_of(
    st.just(F0),
    st.just(F0),
    st.just(F0),
    st.builds(F, st.integers(-9, 9), st.integers(1, 6)),
)


@st.composite
def matrices(draw, max_rows=12, max_cols=12, min_cols=1):
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(min_cols, max_cols))
    m = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    # repeat some rows and sums of rows, as relation matrices do
    for _ in range(draw(st.integers(0, 3)) if m else 0):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        m.append([x + y for x, y in zip(m[i], m[j])])
    return m


@SETTINGS
@given(matrices())
def test_rref_matches_dense_oracle(m):
    rows, pivots = rref(sparse_rows(m))
    assert (densify(rows, len(m[0]) if m else 0), pivots) == dense_rref(m)
    assert all(isinstance(x, Fraction) and x for row in rows for x in row.values())


# mixed rows, as the relation and operator rows built from integer-first
# coefficients arrive: int entries, and Fraction ones only when not integral
mixed_entries = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.builds(F, st.integers(-9, 9).filter(bool), st.integers(2, 6)).filter(
        lambda x: x.denominator != 1
    ),
)


@st.composite
def mixed_rows(draw, max_rows=10, max_cols=10):
    ncols = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(
            st.dictionaries(st.integers(0, ncols - 1), mixed_entries, max_size=ncols),
            max_size=max_rows,
        )
    )
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        s = dict(rows[i])
        linalg.add_multiple(s, draw(mixed_entries), rows[j])
        rows.append(s)
    return ncols, rows


@SETTINGS
@given(mixed_rows())
def test_echelon_invariants_on_mixed_rows(data):
    ncols, rows = data
    out, pivots = rref(rows)
    # pivots increase, each pivot entry is 1, leads its row and is cleared
    # from every other row
    assert pivots == sorted(set(pivots))
    for k, (row, pc) in enumerate(zip(out, pivots)):
        assert row[pc] == 1 and min(row) == pc
        assert all(pc not in other for i, other in enumerate(out) if i != k)
    assert all(isinstance(x, Fraction) and x for row in out for x in row.values())
    # idempotent
    assert rref(out) == (out, pivots)
    # the row space is kept: the input rows lie in the span of the result,
    # and both spans have the same dimension
    assert rref(rows + out) == (out, pivots)
    assert len(out) == rank_mod_prime([[F(x) for x in dense(r, ncols)] for r in rows])
    # the same result as on the rows cast to Fraction
    assert rref([{j: F(x) for j, x in r.items()} for r in rows]) == (out, pivots)


@SETTINGS
@given(matrices())
def test_rank_matches_rank_mod_prime(m):
    # by rows or by columns: the rank is the same
    assert rank(sparse_rows(m)) == rank_mod_prime(m)
    assert rank(sparse_columns(m)) == rank_mod_prime(m)



@st.composite
def dependent_rows(draw, max_base=6, max_cols=10):
    """Sparse Fraction rows, many of them combinations of others: sums of
    up to four drawn rows with Fraction factors (fill-in), and pairs whose
    sum cancels exactly, with empty rows mixed in, in a drawn order."""
    ncols = draw(st.integers(1, max_cols))
    fraction = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    row = st.dictionaries(st.integers(0, ncols - 1), fraction, max_size=ncols)
    base = draw(st.lists(row, max_size=max_base))
    rows = list(base)
    for _ in range(draw(st.integers(0, 6)) if base else 0):
        combo = {}
        for i in draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=4)):
            linalg.add_multiple(combo, draw(fraction), base[i])
        rows.append(combo)
        if draw(st.booleans()):
            # combo + (rows[i] − combo) == rows[i]: entries cancel in pairs
            other = dict(rows[draw(st.integers(0, len(rows) - 1))])
            linalg.add_multiple(other, F(-1), combo)
            rows.append(other)
    rows += [{} for _ in range(draw(st.integers(0, 2)))]
    return ncols, draw(st.permutations(rows))


@SETTINGS
@given(dependent_rows())
@example((3, []))
@example((3, [{}, {}]))
def test_fraction_free_rank_matches_rref_and_rank_mod_prime(data):
    ncols, rows = data
    before = copy.deepcopy(rows)
    r = rank(rows)
    assert rows == before
    assert r == len(rref(rows)[0])
    assert r == rank_mod_prime([dense(row, ncols) for row in rows])

@SETTINGS
@given(matrices(min_cols=0))
def test_nullspace_is_the_kernel(m):
    ncols = len(m[0]) if m else 4
    basis = nullspace(sparse_rows(m), ncols)
    assert len(basis) == ncols - rank(sparse_rows(m))
    cols = sparse_columns(m) if m else [{}] * ncols
    for v in basis:
        assert mat_vec(cols, v) == {}
    # one vector per free column, with −R[r][fc] at the pivots
    assert densify(basis, ncols) == dense_oracle.nullspace(m, ncols)


@st.composite
def products(draw, max_dim=6):
    """(nrows, a, b): sparse columns a (nrows × k) and b (k × m) with mixed
    entries.  Some columns of a are multiples f·a[i] of another, and some
    columns of b carry f·y at i and −y there, so products cancel exactly."""
    nrows, k = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    m = draw(st.integers(0, max_dim))
    column = st.dictionaries(st.integers(0, nrows - 1), mixed_entries)
    a = draw(st.lists(column, min_size=k, max_size=k))
    pairs = []
    for _ in range(draw(st.integers(0, k - 1))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if i != j:
            f = draw(mixed_entries)
            a[j] = {r: f * x for r, x in a[i].items()}
            pairs.append((i, j, f))
    vector = st.dictionaries(st.integers(0, k - 1), mixed_entries)
    b = draw(st.lists(vector, min_size=m, max_size=m))
    for col in b:
        if pairs and draw(st.booleans()):
            i, j, f = draw(st.sampled_from(pairs))
            y = draw(mixed_entries)
            col[i], col[j] = f * y, -y
    return nrows, a, b


@SETTINGS
@given(products())
def test_products_match_dense_oracle_and_store_no_zero(data):
    nrows, a, b = data
    k = len(a)
    dense_a = as_dense(a, nrows)
    for v in b:
        out = mat_vec(a, v)
        assert dense(out, nrows) == dense_oracle.mat_vec(dense_a, dense(v, k))
        assert all(out.values())
    prod = mat_mul(a, b)
    assert as_dense(prod, nrows) == dense_oracle.mat_mul(dense_a, as_dense(b, k))
    assert all(x for col in prod for x in col.values())



# the entry of a one-entry column: ±1, as in the signed partial maps of the
# group-algebra instances, other ints, and non-integral Fractions
unit_scalars = st.one_of(st.sampled_from([1, -1]), mixed_entries)


@st.composite
def products_with_unit_columns(draw):
    """(nrows, a, b): a product from :func:`products` whose right factor also
    gets one-entry columns, empty columns and a column summing two columns
    of a that cancel, in a drawn order."""
    nrows, a, b = draw(products())
    k = len(a)
    extra = [{draw(st.integers(0, k - 1)): draw(unit_scalars)} for _ in range(draw(st.integers(0, 6)))]
    extra += [{} for _ in range(draw(st.integers(0, 2)))]
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    if i != j and a[i]:
        # a[j] = f·a[i], so f·y·e_i − y·e_j maps to zero
        f, y = draw(mixed_entries), draw(mixed_entries)
        a[j] = {r: f * x for r, x in a[i].items()}
        extra.append({i: f * y, j: -y})
    cols = draw(st.permutations(b + extra))
    return nrows, a, cols


@SETTINGS
@given(products_with_unit_columns())
def test_mat_mul_matches_per_column_route_and_never_aliases(data):
    nrows, a, b = data
    before = copy.deepcopy(a)
    prod = mat_mul(a, b)
    assert prod == [mat_vec(a, col) for col in b]
    assert as_dense(prod, nrows) == dense_oracle.mat_mul(as_dense(a, nrows), as_dense(b, len(a)))
    assert all(x for col in prod for x in col.values())
    assert all(col is not x for col in prod for x in a)
    for col in prod:
        col[nrows] = 1
        col.clear()
    assert a == before

@SETTINGS
@given(matrices().filter(bool), st.randoms(use_true_random=False))
def test_solve_matches_dense_oracle(a, rnd):
    nrows = len(a)
    ncols = len(a[0])
    x0 = [F(rnd.randint(-3, 3)) for _ in range(ncols)]
    consistent = dense_oracle.mat_vec(a, x0)
    perturbed = list(consistent)
    perturbed[rnd.randrange(nrows)] += 1
    cols = sparse_columns(a)
    for b in (consistent, perturbed):
        x = solve(cols, sparse(b))
        assert (None if x is None else dense(x, ncols)) == dense_solve(a, b)
        if x is not None:
            assert mat_vec(cols, x) == sparse(b)
    assert solve(cols, sparse(consistent)) is not None


@SETTINGS
@given(matrices(), st.randoms(use_true_random=False))
def test_quotient_maps_match_dense_routes(rel, rnd):
    n = len(rel[0]) if rel else 5
    src = Quotient(sparse_rows(rel), n)
    # a target whose relations contain the source's, and an unrelated one
    extra = [[F(rnd.randint(-2, 2)) if rnd.random() < 0.3 else F0 for _ in range(n)]]
    bigger = Quotient(sparse_rows(rel + extra), n)
    other = Quotient(sparse_rows([[F(rnd.randint(-2, 2)) for _ in range(n)]]), n)

    q = sparse([F(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(src.dim)])
    assert src.project(src.include(q)) == q

    v = [F(rnd.randint(-3, 3)) if rnd.random() < 0.5 else F0 for _ in range(n)]
    assert dense(src.project(sparse(v)), src.dim) == dense_project(src, v)
    assert (not src.project(sparse(v))) == all(x == 0 for x in dense_project(src, v))
    for row in src.rows:
        assert not src.project(row)

    ident = dense_oracle.identity(n)
    op = [[F(rnd.randint(-2, 2)) if rnd.random() < 0.25 else F0 for _ in range(n)] for _ in range(n)]
    for amb in (ident, op):
        cols = sparse_columns(amb)
        for tgt in (src, bigger, other):
            induced = src.induced_matrix(cols, tgt)
            assert densify(induced, tgt.dim) == unit_vector_induced(src, amb, tgt)
            assert src.preserves_relations(cols, tgt) == all(
                not tgt.project(mat_vec(cols, row)) for row in src.rows
            )
    assert src.preserves_relations(sparse_columns(ident), bigger)


def test_seeded_sparse_matrices_match_dense_oracle():
    rnd = random.Random(7)
    for _ in range(20):
        nrows, ncols = rnd.randint(20, 60), rnd.randint(10, 40)
        m = [
            [F(rnd.randint(-5, 5), rnd.randint(1, 4)) if rnd.random() < 0.05 else F0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        rows, pivots = rref(sparse_rows(m))
        assert (densify(rows, ncols), pivots) == dense_rref(m)
        assert rank(sparse_rows(m)) == rank_mod_prime(m)


# -- rows of at most two entries: the orbit route ------------------------------

units = st.sampled_from([1, -1, F(1), F(-1)])
weights = st.one_of(
    units,
    st.integers(-4, 4).filter(bool),
    st.builds(F, st.integers(-4, 4).filter(bool)),  # integral, yet a Fraction
    st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 5)),
)


@st.composite
def orbit_rows(draw, max_cols=8, max_rows=12):
    """Zero-, one- and two-entry rows over a few columns.  A two-entry row
    is either free or consistent with one weight p per column (c_a·p_a +
    c_b·p_b = 0), so classes come both with and without inconsistent
    cycles; some rows are repeated.

    A chain links four to six columns in increasing order, one row per
    hop: on columns no earlier row has met, each row puts the root of the
    smaller column under the larger one, so the first column ends up three
    or more hops below its root before any lookup compresses the path.
    The two entries of a row come in either order, so a union finds the
    larger root on either side.  Entries ±1 come as ``int`` and as
    ``Fraction``, and some ``Fraction`` entries are integral.  In about
    half of the examples every entry is ±1, as in the rows of a group
    algebra, so that unit ratios and unit weights meet in the unions."""
    entries = draw(st.sampled_from([units, weights]))
    ncols = draw(st.integers(2, max_cols))
    p = draw(st.lists(entries, min_size=ncols, max_size=ncols))
    pair = st.lists(st.integers(0, ncols - 1), min_size=2, max_size=2, unique=True)

    def two_entry(a, b):
        if draw(st.booleans()):
            row = {a: draw(entries), b: draw(entries)}
        else:
            c = draw(entries)
            row = {a: c * p[b], b: -c * p[a]}
        return row if draw(st.booleans()) else dict(reversed(row.items()))

    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(["zero", "one", "pair", "pair", "chain"]))
        if kind == "zero":
            rows.append({})
        elif kind == "one":
            rows.append({draw(st.integers(0, ncols - 1)): draw(entries)})
        elif kind == "pair" or ncols < 4:
            rows.append(two_entry(*draw(pair)))
        else:
            hops = draw(st.lists(st.integers(0, ncols - 1), min_size=4, max_size=6, unique=True))
            hops.sort()
            rows.extend(two_entry(a, b) for a, b in zip(hops, hops[1:]))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        rows.append(dict(rows[draw(st.integers(0, len(rows) - 1))]))
    return ncols, rows


@SETTINGS
@given(orbit_rows())
def test_orbit_rref_matches_rref_and_dense_oracle(data):
    ncols, rows = data
    out, pivots = orbit_rref(rows)
    assert (out, pivots) == rref(rows)
    assert (densify(out, ncols), pivots) == dense_rref(densify(rows, ncols))
    assert all(type(x) is int or x.denominator != 1 for row in out for x in row.values())
    assert orbit_rref(out) == (out, pivots)



def assert_nullspace_matches_oracle(ncols, rows):
    basis = nullspace(rows, ncols)
    assert densify(basis, ncols) == dense_oracle.nullspace(densify(rows, ncols), ncols)
    assert all(type(x) is int or x.denominator != 1 for v in basis for x in v.values())


@SETTINGS
@given(orbit_rows())
def test_nullspace_of_orbit_rows_matches_dense_oracle(data):
    assert_nullspace_matches_oracle(*data)


@pytest.mark.parametrize(
    "rows",
    [
        [{0: 2, 1: 3}],  # e_0 ≡ −3/2·e_1
        [{0: 2, 1: 3}, {1: F(1, 2), 2: -5}, {3: 4, 4: 6}],
        [{1: 5}, {0: 1, 2: -1}],  # a one-entry row kills its column
        [{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 0: -2}],  # inconsistent cycle
        [{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 0: -1}, {3: 3, 4: 2}],  # consistent
    ],
)
def test_nullspace_of_two_entry_rows_cases(rows):
    assert_nullspace_matches_oracle(6, rows)

# -- the projection matrix against the elimination route it replaced -------------
#
# eliminating_reduce, eliminating_project and eliminating_induced live in
# dense_oracle, which the cocyclic tests share.


@st.composite
def quotient_pairs(draw):
    """(ncols, source relations, target relations, op, v).  The source
    relations are ``orbit_rows``, and in about half of the examples also
    rows of three or more entries, so that :class:`Quotient` falls back on
    :func:`rref`.  The target keeps some of them and adds rows of its own,
    of two entries or more; the op is a sparse matrix, which seldom
    descends, or a signed permutation."""
    ncols, rows = draw(orbit_rows())
    wide = st.dictionaries(st.integers(0, ncols - 1), mixed_entries, min_size=min(3, ncols), max_size=ncols)
    if draw(st.booleans()):
        rows = rows + draw(st.lists(wide, min_size=1, max_size=3))
    kept = [row for row in rows if draw(st.booleans())]
    pair = st.dictionaries(st.integers(0, ncols - 1), mixed_entries, min_size=2, max_size=2)
    target = kept + draw(st.lists(st.one_of(pair, wide), max_size=3))
    column = st.dictionaries(st.integers(0, ncols - 1), mixed_entries, max_size=3)
    if draw(st.booleans()):
        op = draw(st.lists(column, min_size=ncols, max_size=ncols))
    else:
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=ncols, max_size=ncols))
        op = [{r: s} for r, s in zip(draw(st.permutations(range(ncols))), signs)]
    return ncols, rows, target, op, draw(column)


@SETTINGS
@given(quotient_pairs())
def test_projection_matrix_matches_elimination_route(data):
    ncols, rows, target, op, v = data
    src, tgt = Quotient(rows, ncols), Quotient(target, ncols)
    for q in (src, tgt):
        for w in [v] + rows + target:
            assert q.project(w) == eliminating_project(q, w)
            assert (not q.project(w)) == (not eliminating_reduce(q, w))
    ident = columns(linalg.identity(ncols))
    for amb in (ident, op):
        for a, b in ((src, tgt), (tgt, src)):
            induced, nonzero = a.induced(amb, b)
            assert (induced, nonzero) == eliminating_induced(a, amb, b)
            assert (a.induced_matrix(amb, b), a.preserves_relations(amb, b)) == (induced, not nonzero)
            assert all(x for col in induced for x in col.values())
    # check_iso's count for a Π that does not descend: the source relations
    # projected to the target
    assert src.induced(ident, tgt)[1] == sum(len(eliminating_project(tgt, row)) for row in src.rows)


# -- signed maps against Columns ---------------------------------------------------


def signed_entries(nrows):
    """An entry of a signed map into ``nrows`` rows: 0 (an empty column) or
    ±(r + 1) for a column ±e_r."""
    return st.integers(-nrows, nrows)


@st.composite
def signed_products(draw):
    """(nrows, a, a2, b, x, y): signed maps a, a2 (k columns, ``nrows``
    rows) and b (into k rows), and Columns factors x (k columns) and y (k
    rows).  Each column of a2 is that of a kept, emptied, sign-flipped on
    its row, or sent to another row, so that equal, opposite, one-sided
    and two-row differences all occur; a and b send some columns to one
    row."""
    nrows, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = draw(st.lists(signed_entries(nrows), min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        a[1] = a[0]  # two columns sent to one row
    a2 = []
    for e in a:
        kind = draw(st.sampled_from(["keep", "keep", "empty", "flip", "move"]))
        a2.append({"keep": e, "empty": 0, "flip": -e, "move": draw(signed_entries(nrows))}[kind])
    b = draw(st.lists(signed_entries(k), max_size=6))
    column = st.dictionaries(st.integers(0, nrows - 1), mixed_entries, max_size=3)
    x = draw(st.lists(column, min_size=k, max_size=k))
    y = draw(st.lists(st.dictionaries(st.integers(0, k - 1), mixed_entries, max_size=3), max_size=5))
    return nrows, a, a2, b, x, y


@SETTINGS
@given(signed_products())
def test_signed_kernel_matches_columns(data):
    nrows, a, a2, b, x, y = data
    ca, ca2, cb = columns(a), columns(a2), columns(b)
    assert signed(ca) == a and all(len(col) <= 1 for col in ca)
    assert columns(ca) is ca
    # composition: signed∘signed stays signed; a Columns factor gives Columns
    ab = compose(a, b)
    assert type(ab) is list and all(type(e) is int for e in ab)
    assert columns(ab) == mat_mul(ca, cb)
    assert compose(x, b) == mat_mul(x, cb)
    assert compose(a, y) == mat_mul(ca, y)
    assert compose(ca, b) == compose(a, cb) == mat_mul(ca, cb)
    # equality and the witness count
    assert (a == a2) == (ca == ca2)
    count = sum(x != y for ra, rb in zip(as_dense(a, nrows), as_dense(a2, nrows)) for x, y in zip(ra, rb))
    assert residual_nonzeros(a, a2) == residual_nonzeros(ca, a2) == residual_nonzeros(ca, ca2) == count
    assert cocyclic.mismatch(a, a2, "id") == cocyclic.mismatch(ca, ca2, "id")
    assert cocyclic.mismatch(a, ca, "id") == []
    t = linalg.transpose(ca, nrows)
    assert linalg.transpose(a, nrows) in (t, signed(t))


def typed(m):
    """The columns of ``m`` as lists of (row, entry, entry type), in key
    order."""
    return [[(r, x, type(x)) for r, x in col.items()] for col in columns(m)]


@st.composite
def either_encoding(draw, nrows, ncols):
    """A matrix of ``nrows`` rows and ``ncols`` columns: a signed map, or
    Columns of up to three entries each, among them int ±1 and 2, and
    ``Fraction(±1)`` and non-integral Fractions."""
    if draw(st.booleans()):
        return draw(st.lists(signed_entries(nrows), min_size=ncols, max_size=ncols))
    entry = st.one_of(st.sampled_from([1, -1, 2, F(1), F(-1)]), mixed_entries)
    column = st.dictionaries(st.integers(0, nrows - 1), entry, max_size=3)
    return draw(st.lists(column, min_size=ncols, max_size=ncols))


@SETTINGS
@given(st.data())
def test_compose_matches_mat_mul_of_decoded_factors(data):
    # a signed factor is read in place, and the product has the entries,
    # the entry types and the key order of mat_mul on the decoded factors
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a, b = data.draw(either_encoding(n, k), label="a"), data.draw(either_encoding(k, m), label="b")
    before = copy.deepcopy((a, b))
    out = compose(a, b)
    assert typed(out) == typed(mat_mul(columns(a), columns(b)))
    assert linalg.is_signed(out) == (linalg.is_signed(a) and linalg.is_signed(b))
    assert as_dense(out, n) == dense_oracle.mat_mul(as_dense(a, n), as_dense(b, k))
    assert (a, b) == before
    assert not any(col is x for col in out for x in a if isinstance(col, dict))


@SETTINGS
@given(st.data())
def test_transpose_matches_dense_transpose(data):
    # either encoding in; a signed map stays signed exactly when no two of
    # its nonzero columns hit one row, and every entry keeps its type
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 5))
    a = data.draw(either_encoding(n, m), label="a")
    before = copy.deepcopy(a)
    out = linalg.transpose(a, n)
    assert len(out) == n
    assert as_dense(out, m) == [list(row) for row in zip(*as_dense(a, n))]
    hits = [abs(e) for e in a if e] if a and linalg.is_signed(a) else None
    assert linalg.is_signed(out) == (hits is not None and len(set(hits)) == len(hits))
    entries = {(r, j): (x, type(x)) for j, col in enumerate(columns(a)) for r, x in col.items()}
    assert {(r, j): (x, type(x)) for j, row in enumerate(columns(out)) for r, x in row.items()} == {
        (j, r): e for (r, j), e in entries.items()
    }
    assert a == before


def test_signed_left_factor_adds_what_it_sends_to_one_row():
    # columns 0 and 1 of a both go to row 0, with opposite signs
    a = [1, -1, 2]
    assert compose(a, [{0: 1, 1: 1}, {0: 2, 1: F(1, 2), 2: 1}, {2: F(1)}]) == [{}, {0: F(3, 2), 1: 1}, {1: 1}]
    assert typed(compose(a, [{2: F(1)}])) == typed(mat_mul(columns(a), [{2: F(1)}])) == [[(1, 1, F)]]


@SETTINGS
@given(st.data())
def test_compose_local_matches_the_kronecker_product(data):
    # p ∘ (I_a ⊗ L ⊗ I_b) from slices of p, against p composed with the
    # built Kronecker product (entry types included) and the dense route
    a, b, rows = (data.draw(st.integers(1, 3)) for _ in range(3))
    leg = data.draw(either_encoding(rows, data.draw(st.integers(0, 3))), label="leg")
    nrows = data.draw(st.integers(1, 4))
    p = data.draw(either_encoding(nrows, a * rows * b), label="p")
    before = copy.deepcopy((p, leg))
    out = linalg.compose_local(p, a, leg, b)
    expected = compose(p, linalg.kron([linalg.identity(a), leg, linalg.identity(b)], [a, rows, b]))
    assert linalg.is_signed(out) == linalg.is_signed(expected)
    assert [{r: (x, t) for r, x, t in col} for col in typed(out)] == [
        {r: (x, t) for r, x, t in col} for col in typed(expected)
    ]
    kron = dense_oracle.kronecker([dense_oracle.identity(a), as_dense(leg, rows), dense_oracle.identity(b)])
    assert as_dense(out, nrows) == dense_oracle.mat_mul(as_dense(p, nrows), kron)
    assert all(x for col in columns(out) for x in col.values())
    assert (p, leg) == before


@pytest.mark.parametrize(
    "a,b,count",
    [
        ([2], [-2], 1),  # one row, opposite signs: 2·e_1
        ([2], [3], 2),  # two rows: e_1 − e_2
        ([-1], [0], 1),  # one empty side
        ([0], [3], 1),
        ([1, 0, -2], [1, 0, -2], 0),
    ],
)
def test_signed_witness_counts(a, b, count):
    nrows = max(map(abs, a + b))
    dense_count = sum(x != y for ra, rb in zip(as_dense(a, nrows), as_dense(b, nrows)) for x, y in zip(ra, rb))
    assert residual_nonzeros(a, b) == count == dense_count
    assert residual_nonzeros(columns(a), b) == residual_nonzeros(columns(a), columns(b)) == count


@st.composite
def combine_terms(draw):
    """(nrows, ncols, terms): up to five pairs (c, M) of one shape, the
    empty list among them, c one of 0, ±1, 2 and ½ and M a signed map or
    Columns, now and then a copy of a term under the opposite factor, so
    that whole terms cancel."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    int_column = st.dictionaries(st.integers(0, nrows - 1), st.integers(-3, 3).filter(bool), max_size=3)
    mixed_column = st.dictionaries(st.integers(0, nrows - 1), mixed_entries, max_size=3)
    matrix = st.one_of(
        st.lists(signed_entries(nrows), min_size=ncols, max_size=ncols),
        st.lists(int_column, min_size=ncols, max_size=ncols),
        st.lists(mixed_column, min_size=ncols, max_size=ncols),
    )
    factor = st.sampled_from([0, 1, -1, 2, F(1, 2)])
    terms = draw(st.lists(st.tuples(factor, matrix), max_size=5))
    for _ in range(draw(st.integers(0, 2)) if terms else 0):
        c, m = draw(st.sampled_from(terms))
        terms.insert(draw(st.integers(0, len(terms))), (-c, m))
    return nrows, ncols, terms


@SETTINGS
@given(combine_terms())
@example((2, 3, []))
@example((2, 2, [(1, [1, -2]), (-1, [{0: 1}, {1: -1}])]))
def test_combine_matches_dense_sum(data):
    nrows, ncols, terms = data
    before = copy.deepcopy(terms)
    out = linalg.combine(terms, ncols)
    assert terms == before
    expected = dense_oracle.zeros(nrows, ncols)
    for c, m in terms:
        for row, mrow in zip(expected, as_dense(m, nrows)):
            row[:] = [x + c * y for x, y in zip(row, mrow)]
    assert len(out) == ncols and as_dense(out, nrows) == expected
    assert all(x for col in out for x in col.values())  # no zero stored
    if all(type(x) is int for c, m in terms for x in [c] + [y for col in columns(m) for y in col.values()]):
        assert all(type(x) is int for col in out for x in col.values())


def test_only_monomial_columns_encode():
    # only int ±1 entries encode, so a signed map gives back every entry
    # with its type
    m = [{}, {3: 1}, {0: -1}]
    assert signed(m) == [0, 4, -1]
    assert columns(signed(m)) == m
    assert [list(map(type, col.values())) for col in columns(signed(m))] == [[], [int], [int]]
    assert signed([{}, {3: 1}, {0: F(-1)}]) is None and signed([{0: F(1)}]) is None
    assert signed([{0: 2}]) is None and signed([{0: 1, 1: 1}]) is None
    assert linalg.identity(3) == [1, 2, 3] and columns(linalg.identity(3)) == [{0: 1}, {1: 1}, {2: 1}]
    assert linalg.transpose([2, 0, -1], 2) == [-3, 1]
    assert linalg.transpose([1, 1], 1) == [{0: 1, 1: 1}]  # two columns on one row


@st.composite
def signed_quotient_pairs(draw):
    """(ncols, source rows, target rows, op): two ``orbit_rows`` sets on one
    space, monomial when their entries are ±1, in about two thirds of the
    examples with a row of three or more entries or a row e_a + 2·e_b added
    to one of them, so that its projection is seldom a signed map; and an op of one ±1 entry per
    column, a signed partial map, with now and then an empty column, a
    column of two entries, an entry 2 or an entry ``Fraction(1)``, each
    but the first of which makes it Columns."""
    ncols, rows = draw(orbit_rows())
    target = draw(orbit_rows(max_cols=ncols).filter(lambda d: d[0] == ncols))[1]
    wide = st.dictionaries(st.integers(0, ncols - 1), mixed_entries, min_size=min(3, ncols), max_size=ncols)
    extra = st.one_of(wide, st.builds(lambda a: {a: 1, ncols - 1: 2}, st.integers(0, ncols - 2)))
    side = draw(st.sampled_from([None, "source", "target"]))
    if side == "source":
        rows = rows + [draw(extra)]
    elif side == "target":
        target = target + [draw(extra)]
    op = [{draw(st.integers(0, ncols - 1)): draw(st.sampled_from([1, -1]))} for _ in range(ncols)]
    for _ in range(draw(st.integers(0, 2))):
        odd = draw(st.sampled_from([{}, {}, {0: 1, ncols - 1: -1}, {0: 2}, {0: F(1)}]))
        op[draw(st.integers(0, ncols - 1))] = odd
    return ncols, rows, target, op


@SETTINGS
@given(signed_quotient_pairs())
def test_signed_induction_matches_columns_route(data):
    ncols, rows, target, op = data
    src, tgt = Quotient(rows, ncols), Quotient(target, ncols)
    for q in (src, tgt):
        # each reduced row e_a, or e_a − w·e_r with an int w = ±1
        unit_rows = all(
            len(row) == 1 or len(row) == 2 and all(type(x) is int and x in (1, -1) for x in row.values())
            for row in q.rows
        )
        assert (q.signed_proj is not None) == unit_rows
        assert q.signed_proj is None or columns(q.signed_proj) == q.proj
    # the op as a signed map where it is one (empty columns too), else as
    # drawn; M is a signed map exactly when the op and the target
    # projection are, whatever the source projection is
    amb = signed(op) or op
    for a, b in ((src, tgt), (tgt, src)):
        m, off = a.induced(amb, b)
        if a.dim:
            assert linalg.is_signed(m) == (linalg.is_signed(amb) and b.signed_proj is not None)
        assert (columns(m), off) == eliminating_induced(a, op, b)
        assert (a.induced_matrix(amb, b), a.preserves_relations(amb, b)) == (m, not off)


def test_three_entry_row_falls_back_to_rref():
    # not monomial, as the relation rows of Sweedler's H4 acting on itself are
    rows = [{0: 1, 2: -1}, {1: 1, 3: 1, 4: -1}, {2: 1, 5: -1}, {3: 2, 5: F(1, 2)}]
    n = 6
    assert orbit_rref(rows) is None
    q = Quotient(rows, n)
    expected = dense_rref(densify(rows, n))
    assert (densify(q.rows, n), q.pivots) == expected
    assert rref(rows) == (q.rows, q.pivots)
    for v in dense_oracle.identity(n) + [[F(j - 2, j + 1) for j in range(n)]]:
        assert dense(q.project(sparse(v)), q.dim) == dense_project(q, v)


@pytest.mark.parametrize("command", ["cohomology", "kaygun", "cup"])
def test_quotients_and_w_spans_do_not_call_rref(monkeypatch, capsys, command):
    """Every ⊗_H, coinvariant, W and 1 − λ row of the default reports has at
    most two entries, and :func:`rank` eliminates on its own, so no call
    made for these reports reaches ``rref``: not from a quotient, a W span,
    a kernel or a rank."""
    inside, built, slow = [], [], []
    real_rref = linalg.rref

    def spy(rows):
        slow.append(inside[-1] if inside else "elsewhere")
        return real_rref(rows)

    def entering(name, real):
        def wrapped(*args):
            inside.append(name)
            built.append(name)
            try:
                return real(*args)
            finally:
                inside.pop()

        return wrapped

    monkeypatch.setattr(linalg, "rref", spy)
    monkeypatch.setattr(kaygun, "rref", spy)
    monkeypatch.setattr(Quotient, "__init__", entering("Quotient", Quotient.__init__))
    monkeypatch.setattr(
        kaygun.KaygunBridge, "w_rows", entering("w_rows", kaygun.KaygunBridge.w_rows)
    )
    monkeypatch.setattr(linalg, "rank", entering("rank", rank))
    for module in (cocyclic, cup):
        monkeypatch.setattr(module, "nullspace", entering("nullspace", nullspace))
    assert cli.run([command]) == 0
    capsys.readouterr()
    assert "Quotient" in built and "nullspace" in built
    assert ("w_rows" in built) == (command == "kaygun")
    assert ("rank" in built) == (command != "cup")
    assert slow == []


# -- the relation matrices of the finite instances ------------------------------


def relation_matrices(monkeypatch, build):
    """Every relation matrix ``build`` hands to :class:`Quotient`, as (sparse
    rows, ambient dimension, number of columns up to the last nonzero one)."""
    seen = []
    real = Quotient.__init__

    def recording(self, relations, ambient_dim):
        rows = [dict(row) for row in relations]
        ncols = 1 + max((c for row in rows for c in row), default=-1)
        seen.append((rows, ambient_dim, ncols))
        real(self, relations, ambient_dim)

    monkeypatch.setattr(Quotient, "__init__", recording)
    build()
    monkeypatch.undo()
    return seen


def assert_kernel_matches_oracle(mats):
    assert mats
    for rows, dim, ncols in mats:
        expected = dense_rref(densify(rows, ncols))
        q = Quotient(rows, dim)
        assert (densify(q.rows, ncols), q.pivots) == expected
        out, pivots = rref(rows)
        assert (densify(out, ncols), pivots) == expected


def test_point_and_swap_relation_matrices(monkeypatch, point_cmod, swap_cmod):
    def build():
        build_coalgebra_instance(mc_trivial(point_cmod.hopf), point_cmod, 3)
        build_coalgebra_instance(mc_trivial(swap_cmod.hopf), swap_cmod, 3)
        graded = build_group_algebra(cyclic_group(2), name="kG_g")
        build_coalgebra_instance(mc_graded_group(swap_cmod.hopf, graded), swap_cmod, 3)

    assert_kernel_matches_oracle(relation_matrices(monkeypatch, build))


@pytest.mark.parametrize("coefficients", ["graded", "conjugation"])
def test_regular_s3_relation_matrices(monkeypatch, s3, coefficients):
    gs = GroupSetData(
        s3, list(s3.elements), {(a, x): s3.mult[(a, x)] for a in s3.elements for x in s3.elements}
    )
    cmod = group_set_module_coalgebra(gs)
    space = build_group_algebra(s3, name="kS3_c")
    if coefficients == "graded":
        mc = mc_graded_group(cmod.hopf, space)
    else:
        mc = mc_conjugation_group(cmod.hopf, space, s3)

    ops = CoalgebraOps(mc, cmod)

    def build():
        for n in (0, 1):
            RelativeTensorSpace(ops, n)

    mats = relation_matrices(monkeypatch, build)
    # two generating words of S3 (its transpositions) times 216 basis tuples
    assert max(len(rows) * ncols for rows, _, ncols in mats) == 432 * 216
    assert_kernel_matches_oracle(mats)
