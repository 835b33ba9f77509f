"""Online task assignment (paper §5): policies that pick cells for an
incoming worker.

All policies implement ``pick(view, worker, k) -> list[(row, col)]`` where
``view`` is an :class:`AssignmentView` of the current answer set and (for
the model-based policies) the latest T-Crowd inference result. Multi-task
batches (§5.3) use the greedy top-K approximation the paper proposes.

Policies:

* :class:`RandomPolicy` — CDAS-style random choice (also used for the CRH /
  CATD assignment rows of Fig. 2);
* :class:`LoopingPolicy` — round-robin over the least-answered cells;
* :class:`EntropyPolicy` — AskIt!-style max-uncertainty using the *uniform
  entropy* H (differential vs Shannon — intentionally not comparable across
  datatypes; the paper shows it biases toward continuous tasks);
* :class:`InherentIGPolicy` — Eq. 6 delta-entropy information gain with the
  paper's local approximation (only ``T_ij`` is updated by the hypothetical
  answer). For continuous cells the Gaussian posterior variance does not
  depend on the observed value, so the expected entropy drop is the closed
  form ``½ ln(T_φ / T_φ')``;
* :class:`StructureAwarePolicy` — Eq. 7: the incoming worker's effective
  quality on a cell is adjusted by the conditional error distribution given
  the worker's observed errors on the same row;
* :class:`CdasPolicy` — CDAS [20]: terminate confident cells, assign
  uniformly among the rest;
* :class:`AskItPolicy` — AskIt! [5]: highest-uncertainty cell under its own
  simple (vote/variance-based) uncertainty model.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from ..crowd.schema import TableSchema
from ..crowd.stats import erf
from .correlation import Bernoulli, ErrorModel, Normal, combined_conditional, compute_errors
from .em import CatPosterior, CatPosteriorTable, TCrowdResult, entropy_rows, row_sums

_EPS_Q = 1e-6


@dataclass
class AssignmentView:
    """Everything a policy may look at when assigning tasks.

    ``result`` is the latest T-Crowd inference output (None for baseline
    policies that do not use it); ``error_model`` the fitted §5.2 model;
    ``answered`` maps worker -> set of (row, col) already answered (a worker
    never gets the same task twice); ``counts`` is answers-per-cell.
    """

    schema: TableSchema
    n_rows: int
    answers: pd.DataFrame
    result: TCrowdResult | None = None
    error_model: ErrorModel | None = None
    answered: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    eps: float = 1.0

    def all_cells(self) -> list[tuple[int, int]]:
        return [
            (i, j) for i in range(self.n_rows) for j in range(self.schema.n_cols)
        ]

    def candidates(self, worker: int) -> list[tuple[int, int]]:
        done = self.answered.get(worker, set())
        return [c for c in self.all_cells() if c not in done]


class RandomPolicy:
    """Uniform random assignment among the worker's unanswered cells."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        cand = view.candidates(worker)
        if not cand:
            return []
        idx = self.rng.choice(len(cand), size=min(k, len(cand)), replace=False)
        return [cand[i] for i in idx]


class LoopingPolicy:
    """Round-robin: the cells with the fewest answers, in row/col order."""

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        cand = view.candidates(worker)
        cand.sort(key=lambda c: (view.counts.get(c, 0), c))
        return cand[:k]


def _cell_variances(
    view: AssignmentView, worker: int, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """The worker's answer variance ``α_i β_j φ_u`` on each cell; a row or
    worker the state has not seen yet has α = 1 or φ = 1."""
    st = view.result.state
    ln_a = np.zeros(len(rows))
    seen = rows < len(st.ln_alpha)
    ln_a[seen] = st.ln_alpha[rows[seen]]
    ln_p = st.ln_phi[worker] if worker < len(st.ln_phi) else 0.0
    return np.exp(ln_a + st.ln_beta[cols] + ln_p)


def _cont_entropy(t_phi: float) -> float:
    return 0.5 * float(np.log(2.0 * np.pi * np.e * max(t_phi, 1e-300)))


def _cont_ig(t_phi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Entropy drop ``½ ln(T_φ / T_φ′)`` of Gaussian cells after one more
    answer of variance ``v`` each."""
    t_phi_new = 1.0 / (1.0 / t_phi + 1.0 / v)
    return 0.5 * np.log(t_phi / t_phi_new)


def _cat_table(result: TCrowdResult) -> tuple[CatPosteriorTable, np.ndarray]:
    """Every categorical cell of ``result`` in one table, with each cell's
    column."""
    table = CatPosteriorTable.concat(list(result.cat_cells.values()))
    cols = np.fromiter(result.cat_cells, dtype=np.int64)
    return table, np.repeat(cols, [len(t) for t in result.cat_cells.values()])


def uniform_entropy(view: AssignmentView) -> dict:
    """H(T_ij) per cell (§5.1): differential for continuous, Shannon for
    categorical. NOT comparable across types — used by EntropyPolicy to
    reproduce the paper's bias demonstration."""
    ent: dict = {}
    for rec in view.result.cont_cells.itertuples():
        ent[(int(rec.row), int(rec.col))] = _cont_entropy(float(rec.t_phi))
    for j, table in view.result.cat_cells.items():
        ent.update(zip(((row, j) for row in table.rows.tolist()), table.entropy().tolist()))
    return ent


class EntropyPolicy:
    """Greedy max uniform-entropy (the flawed straw-man of §5.1)."""

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        ent = uniform_entropy(view)
        cand = view.candidates(worker)
        cand.sort(key=lambda c: -ent.get(c, -np.inf))
        return cand[:k]


def _cat_ig(post, q, n_labels):
    """Expected Shannon-entropy drop of categorical cells for a worker of
    per-cell accuracy q (Eq. 6, local update).

    ``post`` is one cell's :class:`CatPosterior`, with scalar ``q`` and
    ``n_labels``, and the gain is a float; or a :class:`CatPosteriorTable`,
    with one ``q`` and ``n_labels`` per cell, and the gains are an array.
    All cells are scored together: the loop runs over the answered-label
    slots of the table, not over cells.

    Enumerates the worker's possible answers over answered labels plus one
    representative unanswered label (all unanswered labels are exchangeable).
    """
    one = isinstance(post, CatPosterior)
    table = post.as_table() if one else post
    q = np.clip(np.asarray(q, dtype=np.float64), _EPS_Q, 1.0 - _EPS_Q)
    wrong = (1.0 - q) / (np.asarray(n_labels) - 1)
    probs, p0, n_un = table.probs, table.p0, table.n_unanswered
    slots = table.answered

    h0 = entropy_rows(probs, p0, n_un)
    new_p0 = p0 * wrong
    exp_h = np.zeros(len(table))

    def term(weight, new_ans, z, n_unans, ok):
        """``weight · z · H(new_ans / z)`` where ``ok`` and z > 0, else 0."""
        ok = ok & (z > 0)
        zs = np.where(ok, z, 1.0)
        h = entropy_rows(new_ans / zs[:, None], new_p0 / zs, n_unans)
        return np.where(ok, weight * z * h, 0.0)

    # The worker answers answered label k: posterior ∝ prior × likelihood;
    # the predictive probability of that answer equals the posterior
    # normaliser z, so one pass gives both.
    for k in range(probs.shape[1]):
        lik = np.where(np.arange(probs.shape[1]) == k, q[..., None], wrong[..., None])
        new_ans = probs * lik
        z = row_sums(new_ans) + n_un * new_p0
        exp_h += term(1, new_ans, z, n_un, slots[:, k])
    # Or one of the n_un exchangeable unanswered labels: the chosen label
    # gets likelihood q and leaves the pool, the other n_un−1 stay at
    # ``wrong``; all n_un cases are identical.
    new_ans = np.concatenate([probs * wrong[..., None], (p0 * q)[..., None]], axis=1)
    z = row_sums(new_ans) + (n_un - 1) * new_p0
    exp_h += term(n_un, new_ans, z, n_un - 1, n_un > 0)
    ig = h0 - exp_h
    return float(ig[0]) if one else ig


class InherentIGPolicy:
    """Eq. 6: greedy top-K by inherent information gain."""

    def gains(self, view: AssignmentView, worker: int) -> dict:
        cont = view.result.cont_cells
        rows = cont["row"].to_numpy(np.int64)
        cols = cont["col"].to_numpy(np.int64)
        v_u = _cell_variances(view, worker, rows, cols)
        gain = _cont_ig(cont["t_phi"].to_numpy(np.float64), v_u)
        ig = dict(zip(zip(rows.tolist(), cols.tolist()), gain.tolist()))

        table, cols = _cat_table(view.result)
        v_u = _cell_variances(view, worker, table.rows, cols)
        q = erf(view.eps / np.sqrt(2.0 * v_u))
        gain = _cat_ig(table, q, table.n_labels)
        ig.update(zip(zip(table.rows.tolist(), cols.tolist()), gain.tolist()))
        return ig

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        ig = self.gains(view, worker)
        cand = view.candidates(worker)
        cand.sort(key=lambda c: -ig.get(c, -np.inf))
        return cand[:k]


class StructureAwarePolicy(InherentIGPolicy):
    """Eq. 7: condition the worker's effective quality on their observed
    errors in the same row before computing the information gain."""

    def _observed_errors(self, view: AssignmentView, worker: int) -> dict:
        """row -> {col: error vs current truth} for this worker."""
        sub = view.answers[view.answers["worker"] == worker]
        if sub.empty or view.result is None:
            return {}
        errs = compute_errors(sub, view.result.truth, view.schema)
        out: dict = {}
        for row, j, err in zip(
            errs["row"].tolist(), errs["col"].tolist(), errs["err"].tolist()
        ):
            out.setdefault(row, {})[j] = err
        return out

    def gains(self, view: AssignmentView, worker: int) -> dict:
        """The inherent gains, with the cells of rows where the worker has
        observed errors re-scored under Eq. 7's conditional error
        distribution: all categorical ones in one :func:`_cat_ig` call."""
        ig = super().gains(view, worker)
        model = view.error_model
        if model is None:
            return ig
        observed = self._observed_errors(view, worker)
        cont = view.result.cont_cells
        t_phi = dict(
            zip(
                zip(cont["row"].tolist(), cont["col"].tolist()),
                cont["t_phi"].to_numpy(np.float64).tolist(),
            )
        )
        table, cols = _cat_table(view.result)
        cat_pos = {cell: i for i, cell in enumerate(zip(table.rows.tolist(), cols.tolist()))}
        cat_cells, cat_idx, cat_q = [], [], []
        cont_cells, cont_phi, cont_v = [], [], []
        for row, errs in observed.items():
            for j in range(view.schema.n_cols):
                cell = (row, j)
                if cell not in ig or j in errs:
                    continue
                dist = combined_conditional(model, j, errs)
                if dist is None:
                    continue
                if isinstance(dist, Bernoulli):
                    cat_cells.append(cell)
                    cat_idx.append(cat_pos[cell])
                    cat_q.append(1.0 - dist.p_wrong)
                else:
                    assert isinstance(dist, Normal)
                    cont_cells.append(cell)
                    cont_phi.append(t_phi[cell])
                    # Effective answer variance: conditional spread plus the
                    # predictable offset (a biased answer is less informative).
                    cont_v.append(max(dist.var + dist.mu**2, 1e-12))
        if cat_cells:
            sub = table.take(np.array(cat_idx))
            gain = _cat_ig(sub, np.array(cat_q), sub.n_labels)
            ig.update(zip(cat_cells, gain.tolist()))
        if cont_cells:
            ig.update(zip(cont_cells, _cont_ig(np.array(cont_phi), np.array(cont_v)).tolist()))
        return ig


class CdasPolicy:
    """CDAS: cells whose estimate is confident are terminated; the rest are
    assigned at random. Confidence comes from the simple vote/CI model CDAS
    uses (not from T-Crowd): majority fraction ≥ ``p_term`` (categorical) or
    mean-CI half-width ≤ ``ci_frac`` × column std (continuous)."""

    def __init__(self, p_term: float = 0.8, ci_frac: float = 0.25, seed: int = 0):
        self.p_term = p_term
        self.ci_frac = ci_frac
        self.rng = np.random.default_rng(seed)

    def _terminated(self, view: AssignmentView) -> set:
        term = set()
        a = view.answers
        cat = set(view.schema.categorical_idx)
        col_sd = {
            j: max(float(a.loc[a["col"] == j, "value"].std() or 1.0), 1e-9)
            for j in view.schema.continuous_idx
        }
        for (row, col), grp in a.groupby(["row", "col"]):
            n = len(grp)
            if n < 2:
                continue
            if col in cat:
                frac = grp["value"].round().value_counts().iloc[0] / n
                if frac >= self.p_term:
                    term.add((int(row), int(col)))
            else:
                half = 1.96 * float(grp["value"].std(ddof=1) or 0.0) / np.sqrt(n)
                if half <= self.ci_frac * col_sd[col]:
                    term.add((int(row), int(col)))
        return term

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        term = self._terminated(view)
        cand = [c for c in view.candidates(worker) if c not in term]
        if not cand:
            cand = view.candidates(worker)
        if not cand:
            return []
        idx = self.rng.choice(len(cand), size=min(k, len(cand)), replace=False)
        return [cand[i] for i in idx]


class AskItPolicy:
    """AskIt!: greedy max-uncertainty with a simple entropy-like measure —
    vote entropy for categorical cells, ln(spread) for continuous cells.

    The two are deliberately NOT calibrated against each other: the
    differential-entropy-like continuous measure on raw column scales
    dwarfs the Shannon vote entropy, so AskIt! keeps selecting continuous
    tasks first (its MNAD drops fast while the error rate stays high) —
    exactly the behaviour §6.3 reports for it. Under-sampled continuous
    cells (< 2 answers) fall back to the column-level spread.
    """

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        a = view.answers
        cat = set(view.schema.categorical_idx)
        col_sd = {
            j: max(float(a.loc[a["col"] == j, "value"].std(ddof=0) or 1.0), 1e-6)
            for j in view.schema.continuous_idx
        }
        unc: dict = {}
        for (row, col), grp in a.groupby(["row", "col"]):
            if col in cat:
                p = grp["value"].round().value_counts(normalize=True).to_numpy()
                unc[(int(row), int(col))] = -float(np.sum(p * np.log(p)))
            else:
                if len(grp) >= 2:
                    sd = float(grp["value"].std(ddof=0) or 0.0)
                    sd = max(sd, 0.05 * col_sd[col])  # agreement ≠ certainty
                else:
                    sd = col_sd[col]
                unc[(int(row), int(col))] = float(np.log(max(sd, 1e-6)))
        cand = view.candidates(worker)
        cand.sort(key=lambda c: -unc.get(c, np.inf))
        return cand[:k]
