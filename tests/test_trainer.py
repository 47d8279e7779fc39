"""Unit tests for repro.tinylm.trainer."""

import numpy as np
import pytest

from repro.tinylm.fusion import PatchFusion
from repro.tinylm.lora import LoRAPatch
from repro.tinylm.model import ModelConfig, ScoringLM
from repro.tinylm.trainer import TrainConfig, Trainer, TrainingExample


def _separable_examples(n=80, seed=0):
    rng = np.random.default_rng(seed)
    colors = ("red", "blue")
    examples = []
    for __ in range(n):
        color = colors[int(rng.integers(2))]
        noise = " ".join(str(rng.integers(50)) for __ in range(4))
        examples.append(
            TrainingExample(
                prompt=f"item color {color} {noise}",
                candidates=("warm", "cold"),
                target=0 if color == "red" else 1,
            )
        )
    return examples


@pytest.fixture()
def model():
    return ScoringLM(ModelConfig(name="trainer-test", feature_dim=256, hidden_dim=24, seed=5))


class TestTrainingExample:
    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            TrainingExample("p", ("a", "b"), target=2)

    def test_accepts_valid(self):
        ex = TrainingExample("p", ("a", "b"), target=1)
        assert ex.candidates == ("a", "b")


class TestFit:
    def test_loss_decreases(self, model):
        trainer = Trainer(model, TrainConfig(epochs=4, seed=1))
        report = trainer.fit(_separable_examples())
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_learns_separable_task(self, model):
        Trainer(model, TrainConfig(epochs=5, seed=1)).fit(_separable_examples())
        examples = _separable_examples(seed=9)
        accuracy = np.mean(
            [model.predict(ex.prompt, ex.candidates) == ex.target for ex in examples]
        )
        assert accuracy > 0.9

    def test_empty_examples_rejected(self, model):
        with pytest.raises(ValueError):
            Trainer(model).fit([])

    def test_final_loss_property(self, model):
        report = Trainer(model, TrainConfig(epochs=2, seed=1)).fit(
            _separable_examples(n=16)
        )
        assert report.final_loss == report.epoch_losses[-1]

    def test_deterministic_given_seed(self):
        results = []
        for __ in range(2):
            model = ScoringLM(
                ModelConfig(name="det", feature_dim=128, hidden_dim=16, seed=2)
            )
            Trainer(model, TrainConfig(epochs=2, seed=3)).fit(
                _separable_examples(n=24)
            )
            results.append(model.weights["encoder.W1"].copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_adapter_only_training_freezes_base(self, model):
        patch = LoRAPatch("p", model.config.target_shapes(), rank=2, seed=1)
        model.attach(patch)
        before = {k: v.copy() for k, v in model.weights.items()}
        Trainer(model, TrainConfig(epochs=2, seed=1), train_base=False).fit(
            _separable_examples(n=24)
        )
        for name, value in model.weights.items():
            np.testing.assert_array_equal(value, before[name])
        assert patch.frobenius_norm() > 0.0

    def test_adapter_swap_resets_adam_state(self, model):
        """Adam moments must not leak from one adapter into the next.

        Slot keys carry only the parameter name ("adapter/B::..."), so
        training patch A and then patch B with the same trainer used to
        warm-start B's moments from A's — the swapped-in patch must
        train exactly like one fitted by a fresh trainer.
        """
        examples = _separable_examples(n=24)
        patch_a = LoRAPatch("p", model.config.target_shapes(), rank=2, seed=1)
        patch_b = LoRAPatch("p", model.config.target_shapes(), rank=2, seed=7)
        trainer = Trainer(model, TrainConfig(epochs=2, seed=3), train_base=False)
        model.attach(patch_a)
        trainer.fit(examples)
        model.detach()
        model.attach(patch_b)
        trainer.fit(examples)

        twin = ScoringLM(
            ModelConfig(name="trainer-test", feature_dim=256, hidden_dim=24, seed=5)
        )
        twin_patch = LoRAPatch("p", twin.config.target_shapes(), rank=2, seed=7)
        twin.attach(twin_patch)
        Trainer(twin, TrainConfig(epochs=2, seed=3), train_base=False).fit(
            examples
        )
        trained = patch_b.parameters()
        expected = twin_patch.parameters()
        assert trained.keys() == expected.keys()
        for key in trained:
            np.testing.assert_array_equal(trained[key], expected[key])

    def test_adapter_training_learns(self, model):
        patch = LoRAPatch("p", model.config.target_shapes(), rank=4, alpha=2.0, seed=1)
        model.attach(patch)
        Trainer(
            model, TrainConfig(epochs=6, seed=1), train_base=False
        ).fit(_separable_examples())
        examples = _separable_examples(seed=9)
        accuracy = np.mean(
            [model.predict(ex.prompt, ex.candidates) == ex.target for ex in examples]
        )
        assert accuracy > 0.85


def _fused_model(train_lambdas=True, train_patches=True, n_patches=3, seed=5):
    """Frozen-backbone model with a non-trivial fusion attached.

    Upstream ``A`` factors are filled with small random values so the
    fused delta (and hence the λ gradients) are non-zero from step one.
    """
    model = ScoringLM(
        ModelConfig(name="trainer-test", feature_dim=256, hidden_dim=24, seed=seed)
    )
    shapes = model.config.target_shapes()
    patches = []
    for i in range(n_patches):
        patch = LoRAPatch(f"up{i}", shapes, rank=2, seed=10 + i)
        rng = np.random.default_rng(100 + i)
        for key in patch.A:
            patch.A[key] = rng.normal(0.0, 0.02, patch.A[key].shape)
        patches.append(patch)
    fusion = PatchFusion(
        patches,
        LoRAPatch("new", shapes, rank=2, seed=42),
        initial_weight=0.3,
        train_lambdas=train_lambdas,
        train_patches=train_patches,
    )
    model.attach(fusion)
    return model, fusion


class TestRankSpaceParity:
    """Rank-space engine must reproduce the dense path to rtol 1e-9."""

    RTOL = 1e-9

    def _fit(self, rank_space, train_lambdas, train_patches, epochs=2):
        model, fusion = _fused_model(train_lambdas, train_patches)
        trainer = Trainer(
            model,
            TrainConfig(epochs=epochs, seed=3),
            train_base=False,
            rank_space=rank_space,
        )
        report = trainer.fit(_separable_examples(n=24))
        return model, fusion, report

    @pytest.mark.parametrize("train_lambdas", [True, False])
    @pytest.mark.parametrize("train_patches", [True, False])
    def test_losses_lambdas_and_params_match(self, train_lambdas, train_patches):
        __, dense_fusion, dense_report = self._fit(
            False, train_lambdas, train_patches
        )
        __, rank_fusion, rank_report = self._fit(
            True, train_lambdas, train_patches
        )
        assert not dense_report.rank_space
        assert rank_report.rank_space
        assert len(rank_report.step_losses) == len(dense_report.step_losses) > 0
        np.testing.assert_allclose(
            rank_report.step_losses,
            dense_report.step_losses,
            rtol=self.RTOL,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            rank_fusion.lambdas, dense_fusion.lambdas, rtol=self.RTOL, atol=1e-12
        )
        dense_params = dense_fusion.parameters()
        rank_params = rank_fusion.parameters()
        assert dense_params.keys() == rank_params.keys()
        for key in dense_params:
            np.testing.assert_allclose(
                rank_params[key], dense_params[key], rtol=self.RTOL, atol=1e-12
            )

    def test_lambda_trajectory_matches(self):
        """λ agrees with the dense path after every epoch, not just the end."""
        trajectories = {}
        for rank_space in (False, True):
            model, fusion = _fused_model()
            trainer = Trainer(
                model,
                TrainConfig(epochs=1, seed=3),
                train_base=False,
                rank_space=rank_space,
            )
            path = []
            for __ in range(3):
                trainer.fit(_separable_examples(n=24))
                path.append(fusion.lambdas.copy())
            trajectories[rank_space] = path
        for rank_lam, dense_lam in zip(trajectories[True], trajectories[False]):
            np.testing.assert_allclose(
                rank_lam, dense_lam, rtol=self.RTOL, atol=1e-12
            )

    def test_single_patch_parity(self):
        examples = _separable_examples(n=24)
        results = {}
        for rank_space in (False, True):
            model = ScoringLM(
                ModelConfig(
                    name="trainer-test", feature_dim=256, hidden_dim=24, seed=5
                )
            )
            patch = LoRAPatch("p", model.config.target_shapes(), rank=2, seed=1)
            model.attach(patch)
            report = Trainer(
                model,
                TrainConfig(epochs=2, seed=3),
                train_base=False,
                rank_space=rank_space,
            ).fit(examples)
            results[rank_space] = (patch.parameters(), report)
        rank_params, rank_report = results[True]
        dense_params, dense_report = results[False]
        assert rank_report.rank_space and not dense_report.rank_space
        np.testing.assert_allclose(
            rank_report.step_losses,
            dense_report.step_losses,
            rtol=self.RTOL,
            atol=1e-12,
        )
        for key in dense_params:
            np.testing.assert_allclose(
                rank_params[key], dense_params[key], rtol=self.RTOL, atol=1e-12
            )

    def test_adapter_swap_mid_fit(self):
        """Swapping fusions between fits stays in parity with dense."""
        examples = _separable_examples(n=24)
        finals = {}
        for rank_space in (False, True):
            model, fusion_a = _fused_model(seed=5)
            trainer = Trainer(
                model,
                TrainConfig(epochs=1, seed=3),
                train_base=False,
                rank_space=rank_space,
            )
            trainer.fit(examples)
            model.detach()
            fusion_b = PatchFusion(
                fusion_a.patches,
                LoRAPatch("new-b", model.config.target_shapes(), rank=2, seed=77),
                initial_weight=0.2,
            )
            model.attach(fusion_b)
            trainer.fit(examples)
            finals[rank_space] = fusion_b.parameters()
        assert finals[True].keys() == finals[False].keys()
        for key in finals[False]:
            np.testing.assert_allclose(
                finals[True][key], finals[False][key], rtol=self.RTOL, atol=1e-12
            )

    def test_rank_space_requires_frozen_base(self, model):
        with pytest.raises(ValueError):
            Trainer(model, train_base=True, rank_space=True)

    def test_auto_selection(self, model):
        examples = _separable_examples(n=8)
        # Base training never engages the rank engine.
        base_report = Trainer(model, TrainConfig(epochs=1, seed=1)).fit(examples)
        assert not base_report.rank_space
        # Frozen backbone + adapter auto-selects it.
        fused, __ = _fused_model()
        report = Trainer(
            fused, TrainConfig(epochs=1, seed=1), train_base=False
        ).fit(examples)
        assert report.rank_space
        # Explicit opt-out is honoured.
        fused2, __ = _fused_model()
        report2 = Trainer(
            fused2,
            TrainConfig(epochs=1, seed=1),
            train_base=False,
            rank_space=False,
        ).fit(examples)
        assert not report2.rank_space

    def test_exact_weights_env_forces_dense(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXACT_WEIGHTS", "1")
        fused, __ = _fused_model()
        report = Trainer(
            fused,
            TrainConfig(epochs=1, seed=1),
            train_base=False,
            rank_space=True,
        ).fit(_separable_examples(n=8))
        assert not report.rank_space


class TestEvaluateLoss:
    def test_no_parameter_updates(self, model):
        before = model.weights["encoder.W1"].copy()
        Trainer(model).evaluate_loss(_separable_examples(n=8))
        np.testing.assert_array_equal(model.weights["encoder.W1"], before)

    def test_returns_finite_loss(self, model):
        loss = Trainer(model).evaluate_loss(_separable_examples(n=8))
        assert np.isfinite(loss) and loss > 0


class TestAdamMechanics:
    def test_grad_clip_limits_step(self, model):
        config = TrainConfig(epochs=1, grad_clip=1e-9, learning_rate=1.0, seed=0)
        before = model.weights["encoder.W1"].copy()
        Trainer(model, config).fit(_separable_examples(n=8))
        # Clipped to almost nothing; Adam normalisation still moves a
        # little, but far less than lr=1.0 would unclipped.
        drift = np.abs(model.weights["encoder.W1"] - before).max()
        assert drift < 1.5

    def test_weight_decay_shrinks_weights(self):
        examples = _separable_examples(n=8)
        heavy = ScoringLM(ModelConfig(name="wd", feature_dim=128, hidden_dim=16, seed=2))
        light = ScoringLM(ModelConfig(name="wd", feature_dim=128, hidden_dim=16, seed=2))
        Trainer(heavy, TrainConfig(epochs=3, weight_decay=0.5, seed=1)).fit(examples)
        Trainer(light, TrainConfig(epochs=3, weight_decay=0.0, seed=1)).fit(examples)
        assert np.linalg.norm(heavy.weights["encoder.W1"]) < np.linalg.norm(
            light.weights["encoder.W1"]
        )


def _reference_adam(cfg, state, param, grad):
    """The textbook out-of-place Adam step, kept as the parity oracle."""
    if cfg.weight_decay:
        grad = grad + cfg.weight_decay * param
    norm = np.linalg.norm(grad)
    if cfg.grad_clip and norm > cfg.grad_clip:
        grad = grad * (cfg.grad_clip / norm)
    state["step"] += 1
    state["m"] = cfg.beta1 * state["m"] + (1 - cfg.beta1) * grad
    state["v"] = cfg.beta2 * state["v"] + (1 - cfg.beta2) * grad * grad
    m_hat = state["m"] / (1 - cfg.beta1 ** state["step"])
    v_hat = state["v"] / (1 - cfg.beta2 ** state["step"])
    param -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)


def _strided(shape):
    """A non-contiguous view spanning more than one Adam block."""
    base = np.random.default_rng(7).normal(size=(shape[0] * 2, shape[1] * 3))
    return base[::2, ::3]


class TestAdamParity:
    """The in-place blocked Adam is bit-identical to the textbook formula."""

    PARAMS = {
        "matrix-96x2048": lambda: np.random.default_rng(1).normal(size=(96, 2048)),
        "vector": lambda: np.random.default_rng(2).normal(size=300),
        "scalar-1": lambda: np.array([0.25]),
        "strided-view": lambda: _strided((200, 100)),
    }

    @pytest.mark.parametrize("name", sorted(PARAMS))
    @pytest.mark.parametrize(
        "clip,decay", [(1.0, 1e-2), (0.0, 0.0)], ids=["clip+decay", "plain"]
    )
    def test_fifty_steps_match_reference(self, name, clip, decay):
        cfg = TrainConfig(learning_rate=3e-3, grad_clip=clip, weight_decay=decay)
        param = self.PARAMS[name]()
        ref_param = param.copy()
        state = {"m": np.zeros_like(ref_param), "v": np.zeros_like(ref_param), "step": 0}
        trainer = Trainer(
            ScoringLM(ModelConfig(name="adam", feature_dim=16, hidden_dim=4)), cfg
        )
        rng = np.random.default_rng(11)
        clipped = 0
        for __ in range(50):
            grad = rng.normal(scale=0.3, size=param.shape)
            effective = grad + decay * ref_param
            clipped += bool(clip and np.linalg.norm(effective) > clip)
            trainer._adam_update("p", param, grad)
            _reference_adam(cfg, state, ref_param, grad)
        slot = trainer._slots["p"]
        assert np.array_equal(param, ref_param)
        assert np.array_equal(slot.m, state["m"])
        assert np.array_equal(slot.v, state["v"])
        assert slot.step == state["step"] == 50
        if clip and param.size > 1:
            assert clipped > 0  # the clip branch really ran

    def test_strided_view_updates_its_base(self):
        param = _strided((200, 100))
        assert not param.flags.c_contiguous
        before = param.base.copy()
        trainer = Trainer(
            ScoringLM(ModelConfig(name="adam", feature_dim=16, hidden_dim=4))
        )
        trainer._adam_update("p", param, np.ones(param.shape))
        changed = param.base != before
        assert changed[::2, ::3].all()
        changed[::2, ::3] = False
        assert not changed.any()  # untouched elements outside the view
