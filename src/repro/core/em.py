"""T-Crowd truth inference (paper §4): the EM driver and the numpy engine.

Implements the unified worker-quality EM:

* worker ``u`` has one inherent variance ``φ_u``; cell difficulty factors as
  ``α_i β_j``; the per-answer variance is ``v = α_i β_j φ_u`` (§4.2);
* continuous answers: ``a ~ N(T̂, v)`` (Eq. 1); categorical accuracy
  ``q = erf(ε/√(2v))`` with the wrong-answer mass uniform over the other
  labels (Eqs. 2–3);
* E-step (Eq. 4): Gaussian posterior ``(T_μ, T_φ)`` per continuous cell with
  per-column empirical prior; label posterior per categorical cell, held
  densely per column as a :class:`CatPosteriorTable` (cells × answered
  labels, zero-padded, plus the unanswered labels' count and shared
  probability). :func:`label_posteriors` builds it with array ops, never
  cell by cell; the Zencrowd and GLAD baselines call it with their own q;
* M-step (Eq. 5): gradient ascent on ``Q(α, β, φ)`` in log-parameter space,
  with per-answer gradients scatter-added to their row/column/worker.

:func:`fit_em` is the one EM driver (priors, initial state, the E → M loop,
convergence, worker quality). An engine hands it its column moments, its
row and worker counts and an E-step; :func:`tcrowd_em` runs the E-step
in-process, and the Spark engine (`core/spark_em.py`) runs the same
per-column E-step kernels inside ``applyInPandas``. The two engines
therefore differ only in summation order and agree to float tolerance
(tested in tests/test_spark_em.py).

Identifiability: ``α β φ`` is invariant under rescaling, so after each
M-step we renormalise ``mean(ln α) = mean(ln φ) = 0``, folding both scales
into β (DESIGN.md §5).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd

from ..crowd.schema import TableSchema
from ..crowd.stats import erf

_Q_CLIP = 1e-9
_LN_CLAMP = 14.0
# M-step: gradient steps per M-step, first step size, the largest
# log-parameter move that ends it, and the lognormal ridges on ln α and ln φ
# (see q_objective).
_GRAD_ITERS = 25
_LR0 = 0.3
_STEP_TOL = 1e-5
_REG_ALPHA = 2.0
_REG_PHI = 0.5


@dataclass
class EMState:
    """Log-parameters of the model (positivity by construction)."""

    ln_alpha: np.ndarray  # (N,)
    ln_beta: np.ndarray  # (M,)
    ln_phi: np.ndarray  # (U,)

    def copy(self) -> "EMState":
        return EMState(self.ln_alpha.copy(), self.ln_beta.copy(), self.ln_phi.copy())

    @property
    def alpha(self) -> np.ndarray:
        return np.exp(self.ln_alpha)

    @property
    def beta(self) -> np.ndarray:
        return np.exp(self.ln_beta)

    @property
    def phi(self) -> np.ndarray:
        return np.exp(self.ln_phi)


@dataclass
class CatPosterior:
    """Label posterior of one categorical cell.

    ``labels``/``probs`` cover the labels that received at least one answer;
    the remaining ``n_unanswered`` labels share probability ``p0`` each.
    """

    labels: np.ndarray
    probs: np.ndarray
    n_unanswered: int
    p0: float

    def as_table(self) -> "CatPosteriorTable":
        """This cell as a one-row :class:`CatPosteriorTable`."""
        return CatPosteriorTable(
            rows=np.zeros(1, dtype=np.int64),
            labels=np.asarray(self.labels, dtype=np.float64)[None, :],
            probs=np.asarray(self.probs, dtype=np.float64)[None, :],
            n_unanswered=np.array([self.n_unanswered], dtype=np.int64),
            p0=np.array([self.p0], dtype=np.float64),
            n_labels=np.array([len(self.probs) + self.n_unanswered], dtype=np.int64),
        )

    def entropy(self) -> float:
        return float(self.as_table().entropy()[0])

    def argmax(self) -> float:
        """Most probable *answered* label (fallback documented in DESIGN §5)."""
        return float(self.as_table().argmax()[0])


def row_sums(x: np.ndarray) -> np.ndarray:
    """Sum each row of ``x`` left to right.

    This is the order numpy uses for a sum of fewer than eight terms, and
    zero padding does not change it, so a cell's sum does not depend on how
    wide the table around it is.
    """
    acc = np.zeros(x.shape[0])
    for k in range(x.shape[1]):
        acc += x[:, k]
    return acc


def entropy_rows(probs: np.ndarray, p0: np.ndarray, n_unanswered: np.ndarray) -> np.ndarray:
    """Shannon entropy per row of a padded posterior table: the positive
    entries of ``probs`` plus ``n_unanswered`` labels at ``p0`` each."""
    pos = probs > 0
    h = -row_sums(np.where(pos, probs * np.log(np.where(pos, probs, 1.0)), 0.0))
    un = (n_unanswered > 0) & (p0 > 0)
    return h - np.where(un, n_unanswered * p0 * np.log(np.where(un, p0, 1.0)), 0.0)


@dataclass
class CatPosteriorTable:
    """Label posteriors of the C cells of one categorical column, dense.

    Row ``c`` is cell ``rows[c]``: its ``n_labels − n_unanswered`` answered
    labels (ascending) and their probabilities fill the first columns of
    ``labels``/``probs``, zero-padded to the widest cell's K; the remaining
    ``n_unanswered`` labels share probability ``p0`` each. ``table[row]``
    builds that cell's :class:`CatPosterior`.
    """

    rows: np.ndarray  # (C,) int64, ascending
    labels: np.ndarray  # (C, K)
    probs: np.ndarray  # (C, K)
    n_unanswered: np.ndarray  # (C,) int64
    p0: np.ndarray  # (C,)
    n_labels: np.ndarray  # (C,) int64

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def answered(self) -> np.ndarray:
        """(C, K) mask of the answered-label slots (the rest is padding)."""
        width = self.n_labels - self.n_unanswered
        return np.arange(self.probs.shape[1]) < width[:, None]

    def __getitem__(self, row: int) -> CatPosterior:
        c = int(np.searchsorted(self.rows, row))
        if c == len(self.rows) or self.rows[c] != row:
            raise KeyError(row)
        k = int(self.n_labels[c] - self.n_unanswered[c])
        return CatPosterior(
            labels=self.labels[c, :k].copy(),
            probs=self.probs[c, :k].copy(),
            n_unanswered=int(self.n_unanswered[c]),
            p0=float(self.p0[c]),
        )

    def entropy(self) -> np.ndarray:
        return entropy_rows(self.probs, self.p0, self.n_unanswered)

    def argmax(self) -> np.ndarray:
        """Most probable *answered* label per cell (padding has probability 0
        and comes last, so it never wins a tie)."""
        return self.labels[np.arange(len(self.rows)), np.argmax(self.probs, axis=1)]

    def take(self, idx: np.ndarray) -> "CatPosteriorTable":
        """The cells at positions ``idx``, in that order."""
        return CatPosteriorTable(
            self.rows[idx], self.labels[idx], self.probs[idx],
            self.n_unanswered[idx], self.p0[idx], self.n_labels[idx],
        )

    @staticmethod
    def concat(tables: list["CatPosteriorTable"]) -> "CatPosteriorTable":
        """Stack tables (e.g. of several columns), padded to the widest K."""
        if not tables:
            no_cells = np.zeros(0, dtype=np.int64)
            return CatPosteriorTable(
                no_cells, np.zeros((0, 0)), np.zeros((0, 0)), no_cells, np.zeros(0), no_cells
            )
        k = max(t.probs.shape[1] for t in tables)

        def pad(a: np.ndarray) -> np.ndarray:
            return np.pad(a, ((0, 0), (0, k - a.shape[1])))

        return CatPosteriorTable(
            np.concatenate([t.rows for t in tables]),
            np.concatenate([pad(t.labels) for t in tables]),
            np.concatenate([pad(t.probs) for t in tables]),
            np.concatenate([t.n_unanswered for t in tables]),
            np.concatenate([t.p0 for t in tables]),
            np.concatenate([t.n_labels for t in tables]),
        )


@dataclass
class TCrowdResult:
    state: EMState
    truth: pd.DataFrame  # (row, col, truth) over answered cells
    cont_cells: pd.DataFrame  # (row, col, t_mu, t_phi)
    cat_cells: dict  # col -> CatPosteriorTable
    worker_quality: np.ndarray  # q_u = erf(ε/√(2 φ_u))
    n_iters: int
    converged: bool
    q_trace: list = field(default_factory=list)  # Q value after each M-step
    priors: dict = field(default_factory=dict)  # col -> (mu0, var0)


# ---------------------------------------------------------------------------
# E-step kernels (shared with the Spark engine).
# ---------------------------------------------------------------------------

def estep_continuous_column(
    rows: np.ndarray, values: np.ndarray, v: np.ndarray, mu0: float, var0: float
):
    """Gaussian posterior per cell of one continuous column.

    Returns ``(cell_rows, t_mu, t_phi, s_per_answer)`` where ``s`` is the
    M-step sufficient statistic ``(a - T_μ)² + T_φ``.
    """
    cell_rows, inv = np.unique(rows, return_inverse=True)
    prec = 1.0 / v
    sum_prec = np.bincount(inv, weights=prec)
    sum_pv = np.bincount(inv, weights=prec * values)
    t_phi = 1.0 / (sum_prec + 1.0 / var0)
    t_mu = (sum_pv + mu0 / var0) * t_phi
    s = (values - t_mu[inv]) ** 2 + t_phi[inv]
    return cell_rows, t_mu, t_phi, s


def check_labels(labels: np.ndarray, n_labels) -> None:
    """Raise ``ValueError`` unless every label is in ``0..n_labels-1``
    (``n_labels`` is one count or one per label)."""
    n_labels = np.broadcast_to(n_labels, labels.shape)
    bad = (labels < 0) | (labels >= n_labels)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"categorical answer {labels[i]} is not a label in 0..{n_labels[i] - 1}"
        )


def label_posteriors(
    cells: np.ndarray, labels: np.ndarray, q: np.ndarray, n_labels: np.ndarray
) -> tuple[CatPosteriorTable, np.ndarray]:
    """Label posterior of every answered cell under Eqs. 2–3.

    Answer ``i`` gives label ``labels[i]`` of ``0..n_labels[i]-1`` to the
    cell keyed ``cells[i]`` (a non-negative integer); it is right with
    probability ``q[i]``, otherwise uniform over the other labels. Returns
    the cells' :class:`CatPosteriorTable` (``rows`` are the cell keys,
    ascending) and per answer the posterior probability ``w`` that its label
    is the truth. Raises ``ValueError`` for a label outside its range, which
    would otherwise key as a label of the next cell.
    """
    check_labels(labels, n_labels)
    delta = np.log(q) - np.log((1.0 - q) / (n_labels - 1))

    stride = int(n_labels.max(initial=1))
    pair_key, pair_inv = np.unique(cells * stride + labels, return_inverse=True)
    pair_delta = np.bincount(pair_inv, weights=delta)
    pair_label = pair_key % stride

    cell_rows, cell_inv = np.unique(pair_key // stride, return_inverse=True)
    n_cells = len(cell_rows)
    cell_n_labels = np.zeros(n_cells, dtype=np.int64)
    cell_n_labels[cell_inv[pair_inv]] = n_labels
    mx = np.zeros(n_cells)  # include the unanswered labels' delta of 0
    np.maximum.at(mx, cell_inv, pair_delta)
    ex = np.exp(pair_delta - mx[cell_inv])
    sum_ex = np.bincount(cell_inv, weights=ex, minlength=n_cells)
    n_answered = np.bincount(cell_inv, minlength=n_cells)
    n_un = cell_n_labels - n_answered
    z = sum_ex + n_un * np.exp(-mx)
    pair_p = ex / z[cell_inv]
    p0 = np.exp(-mx) / z

    # Pairs are sorted by (cell, label): a pair's slot is its rank in its cell.
    slot = np.arange(len(pair_key)) - (np.cumsum(n_answered) - n_answered)[cell_inv]
    width = int(n_answered.max(initial=0))
    table_labels = np.zeros((n_cells, width))
    table_probs = np.zeros((n_cells, width))
    table_labels[cell_inv, slot] = pair_label
    table_probs[cell_inv, slot] = pair_p
    table = CatPosteriorTable(
        rows=cell_rows,
        labels=table_labels,
        probs=table_probs,
        n_unanswered=n_un,
        p0=p0,
        n_labels=cell_n_labels,
    )
    return table, pair_p[pair_inv]


def estep_categorical_column(
    rows: np.ndarray, values: np.ndarray, v: np.ndarray, n_labels: int, eps: float
):
    """Label posterior per cell of one categorical column.

    Returns ``(table, w_per_answer, q_per_answer)`` where ``table`` is the
    column's :class:`CatPosteriorTable` and ``w`` is the posterior
    probability that the answer equals the truth (the M-step sufficient
    statistic). Raises ``ValueError`` if a value is not an integer label in
    ``0..n_labels-1``.
    """
    ok = np.isfinite(values) & (values == np.floor(values))
    if not ok.all():
        raise ValueError(
            f"categorical answer {values[~ok][0]!r} is not a label in 0..{n_labels - 1}"
        )
    t = eps / np.sqrt(2.0 * v)
    q = np.clip(np.asarray(erf(t), dtype=np.float64), _Q_CLIP, 1.0 - _Q_CLIP)
    table, w = label_posteriors(
        rows.astype(np.int64), values.astype(np.int64), q, np.full(len(rows), n_labels)
    )
    return table, w, q


# ---------------------------------------------------------------------------
# M-step (shared by both engines; parameters live on the driver).
# ---------------------------------------------------------------------------

def q_objective(
    stats: dict,
    state: EMState,
    eps: float,
    reg_alpha: float = 0.0,
    reg_phi: float = 0.0,
):
    """Q(α, β, φ) of Eq. 5 (parameter-dependent part) and its gradient
    w.r.t. each answer's ``ln v``; v = α_i β_j φ_u.

    ``reg_alpha`` adds a lognormal ridge ``-reg·Σ (ln α_i)²`` on the row
    difficulties: with few answers per row the per-row difficulty is
    otherwise badly under-determined (it chases the per-(worker,row)
    recognition noise), and a weak prior keeps the MAP well-posed.
    ``reg_phi`` adds the same ridge on worker log-variances: the MLE of a
    worker whose answers happen to match the estimated truth exactly drifts
    to φ → 0 (q → 1) unboundedly; the prior keeps it finite. The
    returned gradient is per-answer only; the α-penalty gradient is applied
    in :func:`m_step`."""
    r, c, u = stats["row"], stats["col"], stats["worker"]
    lnv = state.ln_alpha[r] + state.ln_beta[c] + state.ln_phi[u]
    v = np.exp(lnv)
    is_cat = stats["is_cat"]
    s, w, nl = stats["s"], stats["w"], stats["n_labels"]

    g = np.empty(len(r))
    qv = np.zeros(len(r))

    cont = ~is_cat
    if cont.any():
        vc = v[cont]
        qv[cont] = -0.5 * np.log(2.0 * np.pi * vc) - s[cont] / (2.0 * vc)
        g[cont] = -0.5 + s[cont] / (2.0 * vc)
    if is_cat.any():
        t = eps / np.sqrt(2.0 * v[is_cat])
        q = np.clip(np.asarray(erf(t), dtype=np.float64), _Q_CLIP, 1.0 - _Q_CLIP)
        wc, nlc = w[is_cat], nl[is_cat]
        qv[is_cat] = wc * np.log(q) + (1.0 - wc) * np.log((1.0 - q) / (nlc - 1))
        dq_dlnv = -t * np.exp(-t * t) / np.sqrt(np.pi)
        g[is_cat] = (wc / q - (1.0 - wc) / (1.0 - q)) * dq_dlnv
    total = (
        float(qv.sum())
        - reg_alpha * float(np.sum(state.ln_alpha**2))
        - reg_phi * float(np.sum(state.ln_phi**2))
    )
    return total, g


def m_step(stats: dict, state: EMState, eps: float) -> tuple[EMState, float]:
    """Gradient ascent on Q in log-parameter space with backtracking.

    Per-answer gradients w.r.t. ``ln v`` scatter-add to ``ln α_i``,
    ``ln β_j`` and ``ln φ_u`` (chain rule: ln v = ln α + ln β + ln φ).
    """
    st = state.copy()
    n, m, u_n = len(st.ln_alpha), len(st.ln_beta), len(st.ln_phi)
    r, c, u = stats["row"], stats["col"], stats["worker"]
    lr = _LR0
    q_cur, g = q_objective(stats, st, eps, _REG_ALPHA, _REG_PHI)
    for _ in range(_GRAD_ITERS):
        ga = np.bincount(r, weights=g, minlength=n) - 2.0 * _REG_ALPHA * st.ln_alpha
        gb = np.bincount(c, weights=g, minlength=m)
        gp = np.bincount(u, weights=g, minlength=u_n) - 2.0 * _REG_PHI * st.ln_phi
        # Normalise by answer counts so the step size is scale-free.
        na = np.maximum(np.bincount(r, minlength=n), 1)
        nb = np.maximum(np.bincount(c, minlength=m), 1)
        np_ = np.maximum(np.bincount(u, minlength=u_n), 1)
        step_a, step_b, step_p = ga / na, gb / nb, gp / np_
        accepted = False
        for _try in range(10):
            cand = EMState(
                np.clip(st.ln_alpha + lr * step_a, -_LN_CLAMP, _LN_CLAMP),
                np.clip(st.ln_beta + lr * step_b, -_LN_CLAMP, _LN_CLAMP),
                np.clip(st.ln_phi + lr * step_p, -_LN_CLAMP, _LN_CLAMP),
            )
            # Known flaw: this trial Q omits the φ ridge that q_cur has.
            # Fixing it shifts every T-Crowd result (DESIGN.md §5).
            q_new, g_new = q_objective(stats, cand, eps, _REG_ALPHA)
            if q_new >= q_cur - 1e-12:
                accepted = True
                break
            lr *= 0.5
        if not accepted:
            break
        moved = max(
            np.abs(cand.ln_alpha - st.ln_alpha).max(initial=0.0),
            np.abs(cand.ln_beta - st.ln_beta).max(initial=0.0),
            np.abs(cand.ln_phi - st.ln_phi).max(initial=0.0),
        )
        st, q_cur, g = cand, q_new, g_new
        lr = min(lr * 1.3, 2.0)
        if moved < _STEP_TOL:
            break
    # Renormalise the two scale freedoms into β.
    ma = st.ln_alpha.mean()
    mp = st.ln_phi.mean()
    st.ln_alpha -= ma
    st.ln_phi -= mp
    st.ln_beta += ma + mp
    return st, q_cur


# ---------------------------------------------------------------------------
# The EM driver (shared by both engines).
# ---------------------------------------------------------------------------

def answer_moments(answers: pd.DataFrame) -> dict:
    """``col -> (count, mean, population variance)`` of the answer values,
    over the columns that have answers."""
    moments = {}
    for j, group in answers.groupby("col")["value"]:
        vals = group.to_numpy()
        moments[int(j)] = (len(vals), float(vals.mean()), float(vals.var()))
    return moments


def column_priors(moments: dict, schema: TableSchema) -> dict:
    """Empirical Gaussian prior (μ⁰_j, φ⁰_j) per continuous column (§4.3);
    a column without answers gets a prior spanning its domain."""
    priors = {}
    for j in schema.continuous_idx:
        if j in moments:
            _, mean, var = moments[j]
            priors[j] = (mean, max(var, 1e-6))
        else:
            lo, hi = schema.column(j).domain
            priors[j] = ((lo + hi) / 2.0, max(((hi - lo) / 4.0) ** 2, 1e-6))
    return priors


def init_state(
    moments: dict, schema: TableSchema, n_rows: int, n_workers: int
) -> EMState:
    """α = φ = 1; β_j = per-column answer variance for continuous columns
    with more than one answer (so the initial α β φ matches the column's
    scale), 1 otherwise."""
    ln_beta = np.zeros(schema.n_cols)
    for j in schema.continuous_idx:
        n, _, var = moments.get(j, (0, 0.0, 0.0))
        if n > 1:
            ln_beta[j] = np.log(max(var, 1e-6))
    return EMState(np.zeros(n_rows), ln_beta, np.zeros(n_workers))


@dataclass
class EMFit:
    """What :func:`fit_em` hands back to the engine that called it."""

    state: EMState
    priors: dict
    worker_quality: np.ndarray
    n_iters: int
    converged: bool
    q_trace: list


def fit_em(
    estep_stats: Callable[[EMState, dict], dict],
    moments: dict,
    schema: TableSchema,
    n_rows: int,
    n_workers: int,
    *,
    eps: float,
    max_iter: int,
    tol: float,
    warm_state: EMState | None = None,
) -> EMFit:
    """Algorithm 1 for any engine: priors, initial state, then E-step →
    M-step until no log-parameter moves by ``tol``.

    An engine supplies its :func:`answer_moments`, its row and worker
    counts, and ``estep_stats(state, priors)``, which runs one E-step and
    returns the per-answer statistics dict that :func:`m_step` consumes.
    """
    if not moments:
        raise ValueError("no answers to infer from")
    priors = column_priors(moments, schema)
    if warm_state is None:
        state = init_state(moments, schema, n_rows, n_workers)
    else:  # rows and workers new since the warm state start at α = φ = 1
        state = EMState(
            np.pad(warm_state.ln_alpha, (0, max(n_rows - len(warm_state.ln_alpha), 0))),
            warm_state.ln_beta.copy(),
            np.pad(warm_state.ln_phi, (0, max(n_workers - len(warm_state.ln_phi), 0))),
        )

    q_trace: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        new_state, q_val = m_step(estep_stats(state, priors), state, eps)
        q_trace.append(q_val)
        moved = max(
            np.abs(new_state.ln_alpha - state.ln_alpha).max(initial=0.0),
            np.abs(new_state.ln_beta - state.ln_beta).max(initial=0.0),
            np.abs(new_state.ln_phi - state.ln_phi).max(initial=0.0),
        )
        state = new_state
        if moved < tol:
            converged = True
            break
    quality = np.asarray(erf(eps / np.sqrt(2.0 * np.exp(state.ln_phi))), dtype=np.float64)
    return EMFit(state, priors, quality, it, converged, q_trace)


# ---------------------------------------------------------------------------
# The numpy engine.
# ---------------------------------------------------------------------------

def run_estep(
    answers: pd.DataFrame, schema: TableSchema, state: EMState, priors: dict, eps: float
):
    """One full E-step over all columns. Returns (cont_cells, cat_cells,
    stats): the continuous cells' posteriors as a frame, one
    :class:`CatPosteriorTable` per answered categorical column, and the
    per-answer sufficient-statistics dict the M-step consumes (``n_labels``
    is 0 on continuous answers, as in the Spark engine)."""
    r_all = answers["row"].to_numpy(dtype=np.int64)
    c_all = answers["col"].to_numpy(dtype=np.int64)
    u_all = answers["worker"].to_numpy(dtype=np.int64)
    val_all = answers["value"].to_numpy(dtype=np.float64)
    v_all = np.exp(state.ln_alpha[r_all] + state.ln_beta[c_all] + state.ln_phi[u_all])

    s = np.zeros(len(answers))
    w = np.zeros(len(answers))
    is_cat = np.zeros(len(answers), dtype=bool)
    n_labels = np.zeros(len(answers))
    cont_rows, cat_cells = [], {}

    for j, cspec in enumerate(schema.columns):
        mask = c_all == j
        if not mask.any():
            continue
        rows, vals, v = r_all[mask], val_all[mask], v_all[mask]
        if cspec.is_categorical:
            cat_cells[j], w[mask], _ = estep_categorical_column(
                rows, vals, v, cspec.n_labels, eps
            )
            is_cat[mask] = True
            n_labels[mask] = cspec.n_labels
        else:
            mu0, var0 = priors[j]
            cell_rows, t_mu, t_phi, s_j = estep_continuous_column(rows, vals, v, mu0, var0)
            s[mask] = s_j
            cont_rows.append(
                pd.DataFrame({"row": cell_rows, "col": j, "t_mu": t_mu, "t_phi": t_phi})
            )

    cont_cells = (
        pd.concat(cont_rows, ignore_index=True)
        if cont_rows
        else pd.DataFrame(columns=["row", "col", "t_mu", "t_phi"])
    )
    stats = {
        "row": r_all,
        "col": c_all,
        "worker": u_all,
        "is_cat": is_cat,
        "s": s,
        "w": w,
        "n_labels": n_labels,
    }
    return cont_cells, cat_cells, stats


def result_truth(cont_cells: pd.DataFrame, cat_cells: dict) -> pd.DataFrame:
    """Final T̂ (Eq. at end of §4.3): T_μ for continuous, argmax label for
    categorical."""
    parts = []
    if len(cont_cells):
        parts.append(
            cont_cells.rename(columns={"t_mu": "truth"})[["row", "col", "truth"]]
        )
    for col, table in cat_cells.items():
        parts.append(pd.DataFrame({"row": table.rows, "col": col, "truth": table.argmax()}))
    out = pd.concat(parts, ignore_index=True) if parts else pd.DataFrame(
        columns=["row", "col", "truth"]
    )
    return out.sort_values(["row", "col"]).reset_index(drop=True)


def tcrowd_em(
    answers: pd.DataFrame,
    schema: TableSchema,
    *,
    n_rows: int | None = None,
    n_workers: int | None = None,
    eps: float = 1.0,
    max_iter: int = 40,
    tol: float = 1e-3,
    warm_state: EMState | None = None,
) -> TCrowdResult:
    """Full T-Crowd truth inference (Algorithm 1), in-process.

    ``warm_state`` lets the online simulator resume from the previous
    parameters after collecting a few more answers.
    """
    if n_rows is None:
        n_rows = int(answers["row"].to_numpy().max(initial=-1)) + 1
    if n_workers is None:
        n_workers = int(answers["worker"].to_numpy().max(initial=-1)) + 1
    fit = fit_em(
        lambda state, priors: run_estep(answers, schema, state, priors, eps)[2],
        answer_moments(answers),
        schema,
        n_rows,
        n_workers,
        eps=eps,
        max_iter=max_iter,
        tol=tol,
        warm_state=warm_state,
    )
    # Final E-step with the converged parameters.
    cont_cells, cat_cells, _ = run_estep(answers, schema, fit.state, fit.priors, eps)
    return TCrowdResult(
        state=fit.state,
        truth=result_truth(cont_cells, cat_cells),
        cont_cells=cont_cells,
        cat_cells=cat_cells,
        worker_quality=fit.worker_quality,
        n_iters=fit.n_iters,
        converged=fit.converged,
        q_trace=fit.q_trace,
        priors=fit.priors,
    )
