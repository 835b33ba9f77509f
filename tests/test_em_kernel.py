"""Unit tests for the T-Crowd EM kernel (repro.core.em)."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.core.em import (
    CatPosterior,
    EMState,
    answer_moments,
    column_priors,
    estep_categorical_column,
    estep_continuous_column,
    init_state,
    m_step,
    q_objective,
    result_truth,
    run_estep,
    tcrowd_em,
)
from repro.crowd import datasets as D
from repro.crowd.metrics import error_rate, mnad
from repro.crowd.schema import CATEGORICAL, CONTINUOUS, ColumnSpec, TableSchema
from repro.crowd.stats import erf


class TestEstepContinuous:
    def test_single_answer_posterior(self):
        # One answer a with variance v, prior N(mu0, var0):
        # precision-weighted mean.
        rows = np.array([0])
        values = np.array([4.0])
        v = np.array([2.0])
        mu0, var0 = 0.0, 8.0
        cell_rows, t_mu, t_phi, s = estep_continuous_column(rows, values, v, mu0, var0)
        want_phi = 1.0 / (1.0 / 2.0 + 1.0 / 8.0)
        want_mu = (4.0 / 2.0 + 0.0 / 8.0) * want_phi
        assert t_phi[0] == pytest.approx(want_phi)
        assert t_mu[0] == pytest.approx(want_mu)
        assert s[0] == pytest.approx((4.0 - want_mu) ** 2 + want_phi)

    def test_two_equal_answers_average(self):
        rows = np.array([0, 0])
        values = np.array([2.0, 6.0])
        v = np.array([1.0, 1.0])
        _, t_mu, _, _ = estep_continuous_column(rows, values, v, 4.0, 1e9)
        assert t_mu[0] == pytest.approx(4.0, abs=1e-6)

    def test_weighting_by_variance(self):
        # The low-variance answer dominates.
        rows = np.array([0, 0])
        values = np.array([0.0, 10.0])
        v = np.array([0.1, 10.0])
        _, t_mu, _, _ = estep_continuous_column(rows, values, v, 5.0, 1e9)
        assert t_mu[0] < 1.0

    def test_posterior_variance_shrinks_with_answers(self):
        v = np.array([1.0, 1.0, 1.0])
        one = estep_continuous_column(np.array([0]), np.array([1.0]), v[:1], 0, 100)
        three = estep_continuous_column(
            np.zeros(3, dtype=int), np.array([1.0, 2.0, 3.0]), v, 0, 100
        )
        assert three[2][0] < one[2][0]

    def test_multiple_cells(self):
        rows = np.array([0, 0, 3, 3])
        values = np.array([1.0, 3.0, 10.0, 12.0])
        v = np.ones(4)
        cell_rows, t_mu, _, _ = estep_continuous_column(rows, values, v, 0.0, 1e9)
        assert cell_rows.tolist() == [0, 3]
        assert t_mu[0] == pytest.approx(2.0, abs=1e-6)
        assert t_mu[1] == pytest.approx(11.0, abs=1e-6)


class TestEstepCategorical:
    def test_unanimous_answers_win(self):
        rows = np.zeros(3, dtype=int)
        values = np.full(3, 2.0)
        v = np.ones(3)
        posts, w, q = estep_categorical_column(rows, values, v, 5, eps=1.0)
        post = posts[0]
        assert post.argmax() == 2.0
        assert w.min() > 0.9

    def test_posterior_normalised(self):
        rows = np.array([0, 0, 0])
        values = np.array([1.0, 2.0, 1.0])
        v = np.array([0.5, 1.0, 2.0])
        posts, _, _ = estep_categorical_column(rows, values, v, 6, eps=1.0)
        p = posts[0]
        total = p.probs.sum() + p.n_unanswered * p.p0
        assert total == pytest.approx(1.0)

    def test_two_answer_conflict_better_worker_wins(self):
        rows = np.array([0, 0])
        values = np.array([1.0, 3.0])
        v = np.array([0.05, 5.0])  # first worker far more reliable
        posts, _, _ = estep_categorical_column(rows, values, v, 4, eps=1.0)
        assert posts[0].argmax() == 1.0

    def test_hand_computed_two_workers(self):
        # L=2, both answer label 1, qualities q1, q2:
        # P(T=1) ∝ q1 q2 ; P(T=0) ∝ (1-q1)(1-q2).
        v = np.array([0.8, 1.5])
        q1, q2 = (erf(1 / math.sqrt(2 * 0.8)), erf(1 / math.sqrt(2 * 1.5)))
        posts, _, _ = estep_categorical_column(
            np.zeros(2, dtype=int), np.ones(2), v, 2, eps=1.0
        )
        want = (q1 * q2) / (q1 * q2 + (1 - q1) * (1 - q2))
        got = posts[0].probs[posts[0].labels == 1.0][0]
        assert got == pytest.approx(want, rel=1e-9)

    def test_unanswered_mass_counts(self):
        posts, _, _ = estep_categorical_column(
            np.zeros(2, dtype=int), np.array([0.0, 1.0]), np.ones(2), 10, eps=1.0
        )
        p = posts[0]
        assert p.n_unanswered == 8
        assert len(p.labels) == 2

    def test_per_answer_w_is_own_label_posterior(self):
        rows = np.array([0, 0])
        values = np.array([0.0, 1.0])
        posts, w, _ = estep_categorical_column(rows, values, np.ones(2), 3, eps=1.0)
        p = posts[0]
        for lab, expect in zip(p.labels, p.probs):
            assert w[values == lab][0] == pytest.approx(expect)


    def test_dense_table_layout(self):
        # Cells 0 and 2; cell 0 has two answered labels, cell 2 one, so the
        # table is two wide and cell 2's second slot is padding.
        rows = np.array([2, 0, 0])
        values = np.array([0.0, 3.0, 1.0])
        table, _, _ = estep_categorical_column(rows, values, np.ones(3), 5, eps=1.0)
        assert table.rows.tolist() == [0, 2]
        assert table.labels.tolist() == [[1.0, 3.0], [0.0, 0.0]]
        assert table.probs[1, 1] == 0.0
        assert table.n_unanswered.tolist() == [3, 4]
        assert table.answered.tolist() == [[True, True], [True, False]]
        assert table[2].labels.tolist() == [0.0]
        assert table.argmax().tolist() == [table[0].argmax(), table[2].argmax()]
        assert table.entropy().tolist() == [table[0].entropy(), table[2].entropy()]
        with pytest.raises(KeyError):
            table[1]

    @pytest.mark.parametrize(
        "bad",
        [4.0, 7.0, -1.0, 1.5, np.nan, np.inf],
        ids=["n_labels", "above_n_labels", "negative", "non_integer", "nan", "inf"],
    )
    def test_rejects_value_outside_label_set(self, bad):
        # A label of n_labels on row 0 would otherwise key as label 0 of row 1.
        rows = np.array([0, 1])
        values = np.array([bad, 0.0])
        with pytest.raises(ValueError, match="not a label"):
            estep_categorical_column(rows, values, np.ones(2), 4, eps=1.0)

    def test_tcrowd_em_rejects_bad_label(self, tiny_ds):
        a = tiny_ds.answers.copy()
        j = tiny_ds.schema.categorical_idx[0]
        a.loc[a.index[a["col"] == j][0], "value"] = tiny_ds.schema.column(j).n_labels
        with pytest.raises(ValueError, match="not a label"):
            tcrowd_em(a, tiny_ds.schema, max_iter=1)


class TestCatPosterior:
    def test_entropy_uniform(self):
        p = CatPosterior(
            labels=np.array([0.0, 1.0]),
            probs=np.array([0.25, 0.25]),
            n_unanswered=2,
            p0=0.25,
        )
        assert p.entropy() == pytest.approx(math.log(4))

    def test_entropy_certain(self):
        p = CatPosterior(
            labels=np.array([0.0]), probs=np.array([1.0]), n_unanswered=3, p0=0.0
        )
        assert p.entropy() == pytest.approx(0.0)


class TestMStep:
    def _stats_and_state(self, seed=0, n=200):
        g = np.random.default_rng(seed)
        stats = {
            "row": g.integers(0, 5, n),
            "col": g.integers(0, 3, n),
            "worker": g.integers(0, 7, n),
            "is_cat": g.random(n) < 0.5,
            "s": g.random(n) * 2 + 0.1,
            "w": g.random(n),
            "n_labels": np.full(n, 4.0),
        }
        state = EMState(
            g.normal(0, 0.2, 5), g.normal(0, 0.2, 3), g.normal(0, 0.2, 7)
        )
        return stats, state

    def test_gradient_matches_finite_difference(self):
        stats, state = self._stats_and_state()
        eps = 1.0
        _, g = q_objective(stats, state, eps)
        # Perturb one worker's ln φ and compare.
        u, h = 3, 1e-6
        for sign in (+1, -1):
            pass
        st2 = state.copy()
        st2.ln_phi[u] += h
        q_plus, _ = q_objective(stats, st2, eps)
        st2.ln_phi[u] -= 2 * h
        q_minus, _ = q_objective(stats, st2, eps)
        fd = (q_plus - q_minus) / (2 * h)
        analytic = g[stats["worker"] == u].sum()
        assert analytic == pytest.approx(fd, rel=1e-4)

    def test_gradient_matches_fd_alpha(self):
        stats, state = self._stats_and_state(seed=1)
        reg = 2.0
        i, h = 2, 1e-6
        _, g = q_objective(stats, state, 1.0, reg)
        st2 = state.copy()
        st2.ln_alpha[i] += h
        qp, _ = q_objective(stats, st2, 1.0, reg)
        st2.ln_alpha[i] -= 2 * h
        qm, _ = q_objective(stats, st2, 1.0, reg)
        fd = (qp - qm) / (2 * h)
        analytic = g[stats["row"] == i].sum() - 2 * reg * state.ln_alpha[i]
        assert analytic == pytest.approx(fd, rel=1e-4)

    def test_mstep_increases_q(self):
        stats, state = self._stats_and_state(seed=2)
        q0, _ = q_objective(stats, state, 1.0, 2.0)
        new_state, q1 = m_step(stats, state, 1.0)
        assert q1 >= q0 - 1e-9

    def test_mstep_renormalises(self):
        stats, state = self._stats_and_state(seed=3)
        new_state, _ = m_step(stats, state, 1.0)
        assert new_state.ln_alpha.mean() == pytest.approx(0.0, abs=1e-9)
        assert new_state.ln_phi.mean() == pytest.approx(0.0, abs=1e-9)

    def test_renormalisation_preserves_product(self):
        stats, state = self._stats_and_state(seed=4)
        new_state, q1 = m_step(stats, state, 1.0)
        q_check, _ = q_objective(stats, new_state, 1.0, 0.0)
        # Re-evaluating Q at the renormalised params must give (almost) the
        # same value as the unregularised part is scale-invariant only
        # through the product α β φ — verify Q is finite and sane.
        assert np.isfinite(q_check)


class TestInitAndPriors:
    def test_priors_match_column_moments(self, tiny_ds):
        priors = column_priors(answer_moments(tiny_ds.answers), tiny_ds.schema)
        for j in tiny_ds.schema.continuous_idx:
            vals = tiny_ds.answers.loc[tiny_ds.answers["col"] == j, "value"]
            mu0, var0 = priors[j]
            assert mu0 == pytest.approx(vals.mean())
            assert var0 == pytest.approx(vals.var(ddof=0), rel=1e-6)

    def test_init_state_shapes(self, tiny_ds):
        st = init_state(answer_moments(tiny_ds.answers), tiny_ds.schema, 30, 20)
        assert st.ln_alpha.shape == (30,)
        assert st.ln_beta.shape == (4,)
        assert st.ln_phi.shape == (20,)

    def test_init_beta_continuous_scale(self, tiny_ds):
        st = init_state(answer_moments(tiny_ds.answers), tiny_ds.schema, 30, 20)
        for j in tiny_ds.schema.continuous_idx:
            vals = tiny_ds.answers.loc[tiny_ds.answers["col"] == j, "value"]
            assert st.ln_beta[j] == pytest.approx(np.log(vals.var(ddof=0)), rel=1e-6)
        for j in tiny_ds.schema.categorical_idx:
            assert st.ln_beta[j] == 0.0


class TestFullEM:
    def test_truth_covers_answered_cells(self, tiny_ds, tiny_em):
        assert len(tiny_em.truth) == tiny_ds.n_cells
        assert not tiny_em.truth.duplicated(["row", "col"]).any()

    def test_converges(self, tiny_em):
        assert tiny_em.converged
        assert tiny_em.n_iters <= 40

    def test_q_trace_mostly_increasing(self, tiny_em):
        q = np.array(tiny_em.q_trace)
        # EM is monotone in the true likelihood; Q across iterations should
        # trend upward strongly (tiny wiggles possible from E-step swap).
        assert q[-1] > q[0]
        assert (np.diff(q) > -1.0).all()

    def test_beats_naive_baselines(self, tiny_ds, tiny_em):
        from repro.baselines.voting import mv_median

        naive = mv_median(tiny_ds.answers, tiny_ds.schema)
        assert error_rate(tiny_em.truth, tiny_ds.truth, tiny_ds.schema) <= error_rate(
            naive, tiny_ds.truth, tiny_ds.schema
        )
        assert mnad(tiny_em.truth, tiny_ds.truth, tiny_ds.schema) <= mnad(
            naive, tiny_ds.truth, tiny_ds.schema
        )

    def test_worker_quality_anticorrelates_with_hidden_phi(self, tiny_ds, tiny_em):
        est_q = tiny_em.worker_quality
        hid = tiny_ds.worker_phi.to_numpy()
        n = min(len(est_q), len(hid))
        # Spearman (heavy-tailed φ makes Pearson unstable on 20 workers).
        rank = lambda s: np.argsort(np.argsort(s))  # noqa: E731
        r = np.corrcoef(rank(est_q[:n]), rank(hid[:n]))[0, 1]
        assert r < -0.35

    def test_warm_start_converges_faster(self, tiny_ds, tiny_em):
        warm = tcrowd_em(
            tiny_ds.answers, tiny_ds.schema, warm_state=tiny_em.state
        )
        assert warm.n_iters <= tiny_em.n_iters

    def test_warm_start_pads_new_rows_and_workers(self, tiny_ds, tiny_em):
        extra = tiny_ds.answers.copy()
        extra = pd.concat(
            [
                extra,
                pd.DataFrame(
                    {"worker": [25], "row": [35], "col": [2], "value": [50.0]}
                ),
            ],
            ignore_index=True,
        )
        res = tcrowd_em(
            extra, tiny_ds.schema, warm_state=tiny_em.state, max_iter=2
        )
        assert len(res.state.ln_alpha) == 36
        assert len(res.state.ln_phi) == 26

    def test_empty_answers_raise(self, tiny_ds):
        with pytest.raises(ValueError):
            tcrowd_em(tiny_ds.answers.iloc[0:0], tiny_ds.schema)

    def test_single_datatype_tables(self):
        # All-continuous and all-categorical corner cases run end-to-end.
        for gen_kw in [dict(cat_ratio=0.0), dict(cat_ratio=1.0)]:
            ds = D.synthetic_table(n_rows=20, m=3, n_workers=10, n_per_task=3,
                                   seed=5, **gen_kw)
            res = tcrowd_em(ds.answers, ds.schema)
            assert len(res.truth) == ds.n_cells

    def test_result_truth_layout(self, tiny_em):
        assert list(tiny_em.truth.columns) == ["row", "col", "truth"]

    def test_categorical_estimates_are_valid_labels(self, tiny_ds, tiny_em):
        for j in tiny_ds.schema.categorical_idx:
            est = tiny_em.truth[tiny_em.truth["col"] == j]["truth"]
            assert est.round().between(0, tiny_ds.schema.column(j).n_labels - 1).all()


class TestRecovery:
    """On data drawn exactly from the model, the EM must recover truth well."""

    def test_near_perfect_with_many_good_answers(self):
        schema = TableSchema(
            columns=(
                ColumnSpec("c", CATEGORICAL, n_labels=4),
                ColumnSpec("x", CONTINUOUS, domain=(0.0, 100.0)),
            )
        )
        g = np.random.default_rng(9)
        truth = D._uniform_truth(schema, 25, g)
        from repro.crowd.workers import WorkerPool, simulate_answers

        pool = WorkerPool(
            phi=np.full(15, 0.3), is_spammer=np.zeros(15, dtype=bool)
        )
        ds = simulate_answers(
            schema, truth, pool, n_per_task=9, seed=10,
            p_unfamiliar=0.0, alpha_sigma=0.1,
        )
        res = tcrowd_em(ds.answers, ds.schema)
        assert error_rate(res.truth, ds.truth, ds.schema) <= 0.05
        assert mnad(res.truth, ds.truth, ds.schema) <= 0.25
