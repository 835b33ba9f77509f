"""Property tests (hypothesis) for categorical posteriors and their
information gain: the dense E-step table, ``label_posteriors`` over several
columns at once and the batched ``_cat_ig``."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import _cat_ig
from repro.core.em import (
    CatPosterior,
    CatPosteriorTable,
    estep_categorical_column,
    label_posteriors,
    row_sums,
)

_Q = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def cat_cells(draw, wide: bool = False, max_labels: int = 8):
    """``(post, q, n_labels)``: a random label posterior over 2–max_labels
    labels, of which 1..n_labels received answers (the rest share ``p0``),
    and a worker accuracy q in (0, 1). A ``wide`` cell has all 8 labels
    answered."""
    n_labels = 8 if wide else draw(st.integers(2, max_labels))
    k = n_labels if wide else draw(st.integers(1, n_labels))
    labels = np.sort(
        draw(st.permutations(list(range(n_labels))))[:k]
    ).astype(np.float64)
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=k + 1, max_size=k + 1))
    w_un = weights[k] if k < n_labels else 0.0
    total = sum(weights[:k]) + (n_labels - k) * w_un
    if total <= 0:
        weights, w_un, total = [1.0] * (k + 1), float(k < n_labels), n_labels
    post = CatPosterior(
        labels=labels,
        probs=np.asarray(weights[:k]) / total,
        n_unanswered=n_labels - k,
        p0=w_un / total,
    )
    return post, draw(_Q), n_labels


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return -float(np.sum(p * np.log(p)))


def brute_force_ig(post: CatPosterior, q: float, n_labels: int) -> float:
    """Eq. 6 by enumerating every one of the ``n_labels`` possible answers
    over the full label distribution (no exchangeable-label shortcut)."""
    q = min(max(q, 1e-6), 1.0 - 1e-6)  # the accuracy clip of _cat_ig
    prior = np.full(n_labels, post.p0)
    prior[post.labels.astype(int)] = post.probs
    wrong = (1.0 - q) / (n_labels - 1)
    expected = 0.0
    for answer in range(n_labels):
        lik = np.full(n_labels, wrong)
        lik[answer] = q
        joint = prior * lik
        z = joint.sum()  # P(the worker answers ``answer``)
        if z > 0:
            expected += z * _entropy(joint / z)
    return _entropy(prior) - expected


def loop_cat_ig(post: CatPosterior, q: float, n_labels: int) -> float:
    """The one-cell-at-a-time ``_cat_ig`` that the batched one replaced,
    kept as the exact reference: same arithmetic, in the same order."""
    q = float(np.clip(q, 1e-6, 1.0 - 1e-6))
    probs, n_un, p0 = post.probs, post.n_unanswered, post.p0
    wrong = (1.0 - q) / (n_labels - 1)

    def entropy(ans, p_un, n_unans):
        pos = ans[ans > 0]
        h = -float(np.sum(pos * np.log(pos)))
        if n_unans > 0 and p_un > 0:
            h -= n_unans * p_un * np.log(p_un)
        return h

    exp_h = 0.0
    for idx in range(len(probs)):
        lik = np.full(len(probs), wrong)
        lik[idx] = q
        new_ans = probs * lik
        new_p0 = p0 * wrong
        z = float(new_ans.sum() + n_un * new_p0)
        if z > 0:
            exp_h += z * entropy(new_ans / z, new_p0 / z, n_un)
    if n_un > 0:
        new_ans = np.append(probs * wrong, p0 * q)
        new_p0 = p0 * wrong
        z = float(new_ans.sum() + (n_un - 1) * new_p0)
        if z > 0:
            exp_h += n_un * z * entropy(new_ans / z, new_p0 / z, n_un - 1)
    return entropy(probs, p0, n_un) - exp_h


class TestCatIGProperties:
    @given(st.lists(cat_cells(), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, cells):
        table = CatPosteriorTable.concat([post.as_table() for post, _, _ in cells])
        ig = _cat_ig(table, np.array([q for _, q, _ in cells]), table.n_labels)
        assert (ig >= -1e-12).all()

    @given(cat_cells(wide=True), st.lists(cat_cells(), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_batch_equals_one_cell_calls(self, wide, cells):
        # The wide cell pads every other cell to 8+ slots, where numpy's
        # own row sums would switch to pairwise order.
        cells = [wide, *cells]
        table = CatPosteriorTable.concat([post.as_table() for post, _, _ in cells])
        batched = _cat_ig(
            table, np.array([q for _, q, _ in cells]), np.array([n for _, _, n in cells])
        )
        assert batched.tolist() == [_cat_ig(post, q, n) for post, q, n in cells]

    @given(st.lists(cat_cells(max_labels=7), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_equals_cell_loop(self, cells):
        # Below eight labels np.sum adds left to right, as the batch does, so
        # the two must agree bit for bit.
        table = CatPosteriorTable.concat([post.as_table() for post, _, _ in cells])
        batched = _cat_ig(
            table, np.array([q for _, q, _ in cells]), np.array([n for _, _, n in cells])
        )
        assert batched.tolist() == [loop_cat_ig(post, q, n) for post, q, n in cells]

    @given(cat_cells())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_enumeration(self, cell):
        post, q, n_labels = cell
        # abs covers IG ≈ 0 (q ≈ 1/n_labels or a certain cell), where the
        # relative error of a difference of two O(1) entropies is unbounded.
        assert _cat_ig(post, q, n_labels) == pytest.approx(
            brute_force_ig(post, q, n_labels), rel=1e-9, abs=1e-12
        )


@st.composite
def categorical_answers(draw):
    """One categorical column's answers: 1–6 cells, 1–6 answers each, labels
    in 0..n_labels-1, answer variances across two orders of magnitude."""
    n_labels = draw(st.integers(2, 8))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    rows = np.repeat(np.arange(len(sizes)) * 3, sizes)  # sparse row ids
    n = len(rows)
    values = np.array(
        draw(st.lists(st.integers(0, n_labels - 1), min_size=n, max_size=n)), dtype=float
    )
    v = np.array(draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n)))
    return rows, values, v, n_labels


class TestDenseEstepProperties:
    @given(categorical_answers())
    @settings(max_examples=200, deadline=None)
    def test_cells_normalised_with_nonnegative_entropy(self, column):
        rows, values, v, n_labels = column
        table, w, _ = estep_categorical_column(rows, values, v, n_labels, eps=1.0)
        total = table.probs.sum(axis=1) + table.n_unanswered * table.p0
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)
        assert (table.entropy() >= 0).all()
        assert table.rows.tolist() == sorted(set(rows.tolist()))
        assert ((w > 0) & (w <= 1)).all()


@st.composite
def multi_column_answers(draw):
    """Answers over 2–3 categorical columns with different label counts:
    ``(rows, cols, labels, v, n_labels per column)``. Variances come from a
    small set, so equal-evidence label ties occur."""
    n_labels = draw(st.lists(st.integers(2, 6), min_size=2, max_size=3, unique=True))
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    cols = draw(st.lists(st.integers(0, len(n_labels) - 1), min_size=n, max_size=n))
    labels = [draw(st.integers(0, n_labels[j] - 1)) for j in cols]
    v = draw(st.lists(st.sampled_from([0.25, 1.0, 4.0]), min_size=n, max_size=n))
    return np.array(rows), np.array(cols), np.array(labels), np.array(v), n_labels


def sort_decode(cells: np.ndarray, labels: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The sort-based decode Zencrowd and GLAD used before they read
    ``table.argmax()``: per cell the answered label of highest posterior,
    ties to the smallest label; cells in ascending order."""
    dec = (
        pd.DataFrame({"cell": cells, "label": labels, "p": w})
        .groupby(["cell", "label"])["p"].max().reset_index()
        .sort_values(["cell", "p", "label"], ascending=[True, False, True])
        .drop_duplicates("cell", keep="first")
        .sort_values("cell")
    )
    return dec["label"].to_numpy(dtype=float)


class TestLabelPosteriorsProperties:
    @given(multi_column_answers())
    @settings(max_examples=200, deadline=None)
    def test_one_call_equals_per_column_estep(self, answers):
        rows, cols, labels, v, n_labels = answers
        n_cols = len(n_labels)
        q = np.zeros(len(rows))
        per_column = {}
        for j in np.unique(cols).tolist():
            mask = cols == j
            per_column[j] = estep_categorical_column(
                rows[mask], labels[mask].astype(float), v[mask], n_labels[j], eps=1.0
            )
            q[mask] = per_column[j][2]
        cells = rows * n_cols + cols
        table, w = label_posteriors(cells, labels, q, np.array(n_labels)[cols])

        total = row_sums(table.probs) + table.n_unanswered * table.p0
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)
        for j, (col_table, col_w, _) in per_column.items():
            sel = table.rows % n_cols == j
            k = col_table.probs.shape[1]
            assert (table.rows[sel] // n_cols).tolist() == col_table.rows.tolist()
            assert (table.probs[sel, :k] == col_table.probs).all()
            assert (table.probs[sel, k:] == 0).all()
            assert (table.labels[sel, :k] == col_table.labels).all()
            assert (table.p0[sel] == col_table.p0).all()
            assert (table.n_unanswered[sel] == col_table.n_unanswered).all()
            assert (table.n_labels[sel] == n_labels[j]).all()
            assert (w[cols == j] == col_w).all()
        assert table.argmax().tolist() == sort_decode(cells, labels, w).tolist()
