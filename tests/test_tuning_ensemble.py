"""Tests of the expert-ensemble tuning surface.

Covers the PR-9 additions end to end:

* :class:`~repro.tuning.EnsemblePolicy` — the weighted plurality vote,
  mixture validation, in-place ``retune(weights=...)``;
* the controller's ``mode="ensemble"`` — multiplicative-weights updates
  that concentrate on the right expert and propagate to every shard;
* :class:`~repro.tuning.TuningSpec` — the typed tuning surface, its
  validation, and the deprecation shims for the old ``True``/mapping
  spellings of ``BufferSystem.build(tuning=...)``;
* the offline fit (:func:`~repro.tuning.fit_weights`) and the
  ``repro-tuning-weights`` artifact round-trip, including loading fitted
  weights as a live ensemble's starting mixture;
* registry hygiene: every policy's ``ParamSpec`` defaults round-trip
  through :func:`make_policy`, aliases share the canonical parameter
  space, and unknown names raise :class:`UnknownPolicyError`.
"""

from __future__ import annotations

import warnings

import pytest

from repro.api import BufferSystem
from repro.buffer.manager import BufferManager
from repro.buffer.policies import (
    POLICY_REGISTRY,
    UnknownPolicyError,
    make_policy,
    policy_names,
    policy_param_space,
)
from repro.geometry.rect import Rect
from repro.obs.trace import record_run
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType
from repro.tuning import (
    DEFAULT_EXPERTS,
    EnsemblePolicy,
    FittedWeights,
    TuningConfig,
    TuningController,
    TuningSpec,
    fit_weights,
    multiplicative_update,
)

N_PAGES = 18


def build_disk() -> SimulatedDisk:
    disk = SimulatedDisk()
    for page_id in range(N_PAGES):
        page = Page(page_id=page_id, page_type=PageType.DATA)
        side = float(page_id % 5 + 1)
        page.entries.append(
            PageEntry(mbr=Rect(0, 0, side, side), payload=page_id)
        )
        disk.store(page)
    return disk


# ----------------------------------------------------------------------
# EnsemblePolicy
# ----------------------------------------------------------------------


class TestEnsemblePolicy:
    def test_builds_default_panel_from_names(self):
        policy = EnsemblePolicy()
        assert policy.expert_specs == DEFAULT_EXPERTS
        assert len(policy.weights) == len(DEFAULT_EXPERTS)
        assert policy.weights == tuple(
            pytest.approx(1.0 / len(DEFAULT_EXPERTS)) for _ in DEFAULT_EXPERTS
        )

    def test_dominant_expert_dictates_the_victim(self):
        # LRU and MRU disagree maximally on a sequential fill: whoever
        # holds nearly all the weight must win the vote.
        disk = build_disk()
        buffer = BufferManager(
            disk,
            3,
            EnsemblePolicy(experts=("LRU", "MRU"), weights=(0.98, 0.02)),
        )
        for page_id in range(3):
            buffer.fetch(page_id)
        buffer.fetch(3)
        assert 0 not in buffer.frames          # LRU evicts the oldest
        buffer.policy.retune(weights=(0.02, 0.98))
        buffer.fetch(4)
        assert 3 not in buffer.frames          # MRU evicts the newest

    def test_single_expert_ensemble_matches_the_expert(self):
        disk = build_disk()
        plain = BufferManager(build_disk(), 4, make_policy("LRU"))
        wrapped = BufferManager(disk, 4, EnsemblePolicy(experts=("LRU",)))
        stream = [0, 1, 2, 3, 4, 1, 5, 0, 6, 2, 7, 1, 8, 3, 0]
        decisions = []
        for buffer in (plain, wrapped):
            seen = []
            for page_id in stream:
                seen.append(buffer.contains(page_id))
                buffer.fetch(page_id)
            decisions.append(seen)
        assert decisions[0] == decisions[1]
        assert set(plain.frames) == set(wrapped.frames)

    def test_retune_renormalises(self):
        policy = EnsemblePolicy(experts=("LRU", "MRU"))
        policy.retune(weights=(3.0, 1.0))
        assert policy.weights == (0.75, 0.25)

    def test_rejects_bad_mixtures(self):
        with pytest.raises(ValueError):
            EnsemblePolicy(experts=("LRU", "MRU"), weights=(1.0,))
        with pytest.raises(ValueError):
            EnsemblePolicy(experts=("LRU", "MRU"), weights=(1.0, -0.5))
        with pytest.raises(ValueError):
            EnsemblePolicy(experts=("LRU", "MRU"), weights=(0.0, 0.0))
        with pytest.raises(ValueError):
            EnsemblePolicy(experts=())

    def test_unknown_expert_name_raises(self):
        with pytest.raises(UnknownPolicyError):
            EnsemblePolicy(experts=("LRU", "NOPE"))


# ----------------------------------------------------------------------
# multiplicative_update
# ----------------------------------------------------------------------


class TestMultiplicativeUpdate:
    def test_equal_rates_leave_weights_alone(self):
        weights = (0.7, 0.2, 0.1)
        assert multiplicative_update(weights, (0.5, 0.5, 0.5)) == pytest.approx(
            weights
        )

    def test_winner_gains_loser_keeps_the_floor(self):
        new = multiplicative_update(
            (0.5, 0.5), (0.9, 0.1), eta=10.0, weight_floor=0.01
        )
        assert new[0] > 0.9
        # The floor is applied before the final renormalisation, so the
        # loser keeps (about) the floor share — never collapses to zero.
        assert new[1] == pytest.approx(0.01, rel=0.05)
        assert sum(new) == pytest.approx(1.0)

    def test_eta_zero_freezes_the_mixture(self):
        weights = (0.6, 0.3, 0.1)
        assert multiplicative_update(
            weights, (0.0, 1.0, 0.5), eta=0.0
        ) == pytest.approx(weights)


# ----------------------------------------------------------------------
# Controller, ensemble mode
# ----------------------------------------------------------------------


def ensemble_controller(capacity=4, epoch_length=12, **config_kwargs):
    disk = build_disk()
    buffer = BufferManager(
        disk, capacity, EnsemblePolicy(experts=("LRU", "MRU"))
    )
    config = TuningConfig(
        mode="ensemble", epoch_length=epoch_length, **config_kwargs
    )
    controller = TuningController(config)
    controller.attach_buffer(buffer, "ENSEMBLE")
    return buffer, controller


class TestEnsembleController:
    def test_requires_an_ensemble_live_policy(self):
        buffer = BufferManager(build_disk(), 4, make_policy("LRU"))
        controller = TuningController(TuningConfig(mode="ensemble"))
        with pytest.raises(TypeError, match="ENSEMBLE"):
            controller.attach_buffer(buffer, "LRU")

    def test_weights_concentrate_on_the_winning_expert(self):
        # Cyclic scan over capacity + 2 pages: LRU hits 0%, MRU retains
        # most of the loop — the mixture must tilt to MRU.
        buffer, controller = ensemble_controller()
        for step in range(240):
            buffer.fetch(step % 6)
        snapshot = controller.snapshot()
        assert snapshot["mode"] == "ensemble"
        assert snapshot["weight_updates"] >= 1
        assert controller.retunes == controller.weight_updates
        assert snapshot["weights"]["MRU"] > 0.8
        # The live policy carries the same mixture the controller holds.
        live = dict(zip(buffer.policy.expert_names, buffer.policy.weights))
        assert live["MRU"] == pytest.approx(snapshot["weights"]["MRU"])

    def test_eta_zero_observes_without_updating(self):
        buffer, controller = ensemble_controller(eta=0.0)
        for step in range(240):
            buffer.fetch(step % 6)
        assert controller.epochs >= 1
        assert controller.weight_updates == 0
        assert buffer.policy.weights == (0.5, 0.5)

    def test_no_control_ghost_in_ensemble_mode(self):
        _, controller = ensemble_controller()
        assert [ghost.name for ghost in controller.ghosts] == ["LRU", "MRU"]

    def test_sharded_mixture_converges_on_every_shard(self):
        system = BufferSystem.build(
            policy="ENSEMBLE",
            policy_kwargs={"experts": ("LRU", "MRU")},
            capacity=8,
            shards=2,
            tuning=TuningConfig(mode="ensemble", epoch_length=16),
        )
        seed_disk = build_disk()
        for page_id in range(N_PAGES):
            system.disk.store(seed_disk.read(page_id))
        for step in range(400):
            system.buffer.fetch(step % 12)
        assert system.tuner.weight_updates >= 1
        # Every shard converged on (at least almost) the controller's
        # mixture — a shard adopts pending updates on its next tapped
        # access, so near the fixed point it may trail by one update.
        mixtures = [
            manager.policy.weights
            for manager in system.buffer.shard_managers()
        ]
        for mixture in mixtures:
            assert mixture == pytest.approx(mixtures[0], abs=1e-6)
        assert mixtures[0][1] > 0.8            # MRU dominates on the scan
        stats = system.stats_snapshot()
        assert stats["tuning"]["mode"] == "ensemble"
        assert stats["hits"] + stats["misses"] == stats["requests"]


# ----------------------------------------------------------------------
# TuningSpec and the build(tuning=...) surface
# ----------------------------------------------------------------------


class TestTuningSpec:
    def test_defaults_build_a_select_config(self):
        config = TuningSpec().to_config()
        assert config.mode == "select"
        assert config.candidates is None

    def test_ensemble_fields_flow_into_the_config(self):
        spec = TuningSpec(
            mode="ensemble", epoch_length=64, eta=4.0, weight_floor=0.05
        )
        config = spec.to_config()
        assert config.mode == "ensemble"
        assert config.epoch_length == 64
        assert config.eta == 4.0
        assert config.weight_floor == 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            TuningSpec(mode="vote")
        with pytest.raises(ValueError):
            TuningSpec(epoch_length=0)
        with pytest.raises(ValueError):
            TuningSpec(weights_path="w.json")       # needs ensemble mode
        with pytest.raises(TypeError):
            TuningSpec(mode="ensemble", experts=(make_policy("LRU"),))
        with pytest.raises(ValueError):
            TuningSpec(mode="ensemble", experts=())

    def test_build_with_spec_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            system = BufferSystem.build(
                policy="LRU", capacity=8, tuning=TuningSpec(epoch_length=32)
            )
        assert system.tuner is not None
        assert system.tuner.config.epoch_length == 32

    def test_build_ensemble_folds_the_live_policy_into_the_panel(self):
        system = BufferSystem.build(
            policy="LRU",
            capacity=8,
            tuning=TuningSpec(mode="ensemble", experts=("ASB", "AWRP")),
        )
        policy = system.buffer.policy
        assert isinstance(policy, EnsemblePolicy)
        assert policy.expert_specs == ("LRU", "ASB", "AWRP")
        assert system.tuner.config.mode == "ensemble"

    def test_build_ensemble_rejects_instance_policy_with_experts(self):
        with pytest.raises(ValueError):
            BufferSystem.build(
                policy=make_policy("LRU"),
                capacity=8,
                tuning=TuningSpec(mode="ensemble", experts=("ASB",)),
            )


# ----------------------------------------------------------------------
# Offline fit + weights artifact
# ----------------------------------------------------------------------


def record_small_trace():
    # A looping stream with a hot head: enough structure for the fit to
    # produce non-degenerate epochs, small enough to stay instant.
    requests = []
    query = 0
    for round_ in range(12):
        query += 1
        for page_id in range(N_PAGES):
            requests.append((page_id, query))
            requests.append((page_id % 4, query))
    return record_run(requests, build_disk(), make_policy("LRU"), 6)


class TestOfflineFit:
    def test_fit_round_trips_through_the_artifact(self, tmp_path):
        trace = record_small_trace()
        fitted = fit_weights(trace, epoch_length=50)
        assert fitted.experts == DEFAULT_EXPERTS
        assert sum(fitted.weights) == pytest.approx(1.0)
        assert fitted.meta["epochs"] >= 1
        path = tmp_path / "weights.json"
        fitted.save(path)
        loaded = FittedWeights.load(path)
        assert loaded == fitted

    def test_weights_for_reorders_case_insensitively(self):
        fitted = FittedWeights(
            experts=("LRU", "ASB"),
            weights=(0.8, 0.2),
            epoch_length=100,
            eta=10.0,
            weight_floor=0.01,
        )
        assert fitted.weights_for(("asb", "lru")) == (0.2, 0.8)
        with pytest.raises(ValueError, match="refit"):
            fitted.weights_for(("LRU", "MRU"))

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-weights.json"
        path.write_text('{"hello": "world"}', encoding="utf-8")
        with pytest.raises(ValueError):
            FittedWeights.load(path)

    def test_fitted_weights_seed_a_live_ensemble(self, tmp_path):
        trace = record_small_trace()
        fitted = fit_weights(trace, epoch_length=50)
        path = tmp_path / "weights.json"
        fitted.save(path)
        system = BufferSystem.build(
            policy="ENSEMBLE",
            capacity=8,
            tuning=TuningSpec(mode="ensemble", weights_path=str(path)),
        )
        policy = system.buffer.policy
        assert isinstance(policy, EnsemblePolicy)
        assert policy.weights == pytest.approx(fitted.weights)


# ----------------------------------------------------------------------
# Registry hygiene
# ----------------------------------------------------------------------


class TestRegistryMetadata:
    @pytest.mark.parametrize("name", policy_names())
    def test_param_defaults_round_trip_through_make_policy(self, name):
        space = policy_param_space(name)
        defaults = {
            pname: spec.default
            for pname, spec in space.items()
            if spec.default is not None
        }
        policy = make_policy(name, **defaults)
        assert policy.name

    def test_unknown_name_raises_named_error(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            policy_param_space("NOPE")
        assert excinfo.value.policy_name == "NOPE"
        assert isinstance(excinfo.value, ValueError)
        with pytest.raises(UnknownPolicyError):
            make_policy("NOPE")

    def test_aliases_share_the_canonical_param_space(self):
        for key, spec in POLICY_REGISTRY.items():
            for alias in spec.aliases:
                assert policy_param_space(alias) == policy_param_space(
                    spec.name
                )
                assert make_policy(alias).name == make_policy(spec.name).name
