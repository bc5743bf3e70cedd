"""Test-local independent computations used to freeze expected values."""

from fractions import Fraction
from math import comb

from kahlercheck import magnus
from kahlercheck.gradedlie import abelianization_data
from kahlercheck.linalg import RationalMatrix, Rref, rank, wedge_pairs


def gauss_jordan_rref(matrix):
    """Reduced row-echelon form by Gauss-Jordan elimination over Fraction.

    The textbook elimination: the pivot row is divided by its pivot, then
    subtracted from every other row, all in Fraction arithmetic.  Pivoting
    takes the leftmost nonzero column and the first eligible row.
    """
    rows = [[Fraction(x) for x in row] for row in matrix.entries]
    n_rows, n_cols = len(rows), matrix.cols
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    reduced = RationalMatrix(tuple(tuple(row) for row in rows), n_cols)
    return Rref(reduced, len(pivots), tuple(pivots))


def jointspan_dim2(pres):
    """Degree-2 dimension computed entirely inside the wedge square of Q^n.

    Spans the wedges of each relator's exponent vector with every
    coordinate vector together with the antisymmetrized quadratic parts
    of the kernel combinations, then takes the codimension.  No quotient
    pushforward is involved, so this is a genuinely different route from
    the pipeline's.
    """
    n = pres.n
    pairs = wedge_pairs(n)
    expansions = [magnus.expand(r, n) for r in pres.relators]
    rows = []
    for e in expansions:
        lin = e.linear
        for j in range(n):
            unit = [Fraction(0)] * n
            unit[j] = Fraction(1)
            rows.append(tuple(
                lin[a] * unit[b] - lin[b] * unit[a] for a, b in pairs
            ))
    ab = abelianization_data(pres)
    for lam in ab.kernel:
        combined = [
            [sum((lam[r] * expansions[r].quadratic[i][j]
                  for r in range(len(expansions))), Fraction(0))
             for j in range(n)]
            for i in range(n)
        ]
        rows.append(tuple(combined[i][j] - combined[j][i] for i, j in pairs))
    span = RationalMatrix.from_rows(rows, len(pairs))
    return comb(n, 2) - rank(span)


def dense_commutator_matrix(ab):
    """The degree-2 relation matrix by the dense formula B = C (Q - Q^T) C^T.

    One column per kernel combination lambda: the relators' quadratic
    coefficient matrices are combined with lambda, antisymmetrized and
    pushed forward by two dense products with the quotient coordinates
    C, and B is read off on the wedge pairs.
    """
    n, q = ab.n, ab.q
    coords = ab.quotient.coords
    columns = []
    for lam in ab.kernel:
        combined = [
            [sum((lam[r] * ab.series[r].quadratic[i][j] for r in range(ab.s)),
                 Fraction(0))
             for j in range(n)]
            for i in range(n)
        ]
        anti = RationalMatrix.from_rows(
            [[combined[i][j] - combined[j][i] for j in range(n)] for i in range(n)],
            n,
        )
        pushed = coords @ anti @ coords.transpose()
        columns.append([pushed.entries[i][j] for i, j in wedge_pairs(q)])
    return RationalMatrix.from_rows(
        [[col[p] for col in columns] for p in range(comb(q, 2))], len(columns)
    )


def densify(rows, cols):
    """The dense matrix of sparse rows of (column, value) pairs."""
    dense = []
    for row in rows:
        entries = [Fraction(0)] * cols
        for c, x in row:
            entries[c] = x
        dense.append(entries)
    return RationalMatrix.from_rows(dense, cols)


def oracle_dict(doc):
    """The schema-1 report document, with the differential written out dense.

    ``json.dumps(oracle_dict(doc), indent=2, ensure_ascii=False) + "\\n"``
    is the reference layout of ``analyze --json``.
    """
    differential = densify(doc.model.differential, comb(doc.model.dim_v1, 2))
    return {
        "schema": 1,
        "presentation": doc.presentation,
        "n": doc.n,
        "s": doc.s,
        "k": doc.k,
        "q": doc.q,
        "dim_ker_d0": doc.dim_kernel,
        "dim_ker_d1": doc.dim_kernel_deg2,
        "dim_W": doc.dim_relations,
        "dim_gamma2_gamma3": doc.dim2,
        "grl_free": doc.free_two_step,
        "surface_genus": doc.surface_genus,
        "m_max": doc.m_max,
        "excluded_genera": list(doc.excluded_genera),
        "minimal_model": {
            "dimV1": doc.model.dim_v1,
            "dimV2": doc.model.dim_v2,
            "differential": [[str(x) for x in row] for row in differential.entries],
        },
        "verdicts": [
            {"code": v.code.value, "theorem": v.theorem, "detail": v.detail}
            for v in doc.verdicts
        ],
        "overall": doc.overall.value,
    }
