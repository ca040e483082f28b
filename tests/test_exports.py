import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import adaptgap
from adaptgap.direct_sum import DirectSumSpec, LevelAllocation
from adaptgap.hard_instances import HardFamily
from adaptgap.harness import RateFit
from adaptgap.oracle import QueryTape, open_adaptive, open_nonadaptive
from adaptgap.spaces import INF, MixedMatrix, ProblemSpec


def test_every_export_resolves_and_removed_names_are_gone():
    # Each module's __all__ names attributes it has, so a name left behind
    # by a removal fails here rather than at a caller's `import *`.
    modules = {}
    for info in pkgutil.iter_modules(adaptgap.__path__):
        module = modules[info.name] = importlib.import_module(f"adaptgap.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"adaptgap.{info.name}.{name}"
    # Every name the package imports is public in the module it comes from.
    tree = ast.parse(Path(adaptgap.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = modules[node.module]
            for alias in node.names:
                assert getattr(adaptgap, alias.name) is getattr(module, alias.name)
                if hasattr(module, "__all__"):
                    assert alias.name in module.__all__, f"{node.module}.{alias.name}"
    # Surface that no command reaches, removed.
    assert not hasattr(modules["direct_sum"], "ds_norm")
    assert not hasattr(adaptgap, "ds_norm")
    assert "p1" not in {field.name for field in dataclasses.fields(DirectSumSpec)}
    assert not hasattr(LevelAllocation, "budget")
    assert not hasattr(QueryTape, "query")
    assert "antithetic" not in inspect.signature(HardFamily.sample).parameters
    # HardFamily.sample is the one sampler: no per-family functions.
    for i in (1, 2, 3, 4):
        assert not hasattr(modules["hard_instances"], f"sample_mu{i}")
        assert not hasattr(adaptgap, f"sample_mu{i}")
    # Plain Monte Carlo answers only a plan: no pairs, no one-shot draw.
    assert not hasattr(adaptgap, "draw_indices")
    assert not hasattr(modules["estimators"], "draw_indices")
    assert list(inspect.signature(adaptgap.mc_mean_a2).parameters) == ["tape"]
    f = MixedMatrix(ProblemSpec(1, 1, 1.0, INF), np.ones((1, 1)))
    with pytest.raises(TypeError):
        open_nonadaptive(f, [(1, 1)])


def test_values_follow_from_what_holds_them():
    # A tape's budget is its plan's size or, when adaptive, a required
    # argument: no sentinel for an unbounded tape.
    assert not hasattr(adaptgap, "UNBOUNDED")
    assert not hasattr(adaptgap.oracle, "UNBOUNDED")
    f = MixedMatrix(ProblemSpec(1, 1, 1.0, INF), np.ones((1, 1)))
    with pytest.raises(TypeError):
        open_adaptive(f)
    # a3's exponent is its tape's spec's p; a1 samples a population vector.
    assert "p" not in inspect.signature(adaptgap.adaptive_mean_a3).parameters
    assert list(inspect.signature(adaptgap.norm_est_a1).parameters)[0] == "population"
    fields = [field.name for field in dataclasses.fields(RateFit)]
    assert fields == ["slope", "intercept", "r_squared"]
    # A chunk's trial count is its RowChunk's row count: plans hold no
    # trials, and a chunk opens through open_nonadaptive, as a matrix does.
    assert "trials" not in inspect.signature(adaptgap.Plan.drawn).parameters
    assert "trials" not in inspect.signature(adaptgap.draw_plan).parameters
    assert not hasattr(adaptgap.Plan(np.zeros(1, dtype=np.int64)), "trials")
    assert not hasattr(adaptgap.oracle, "open_nonadaptive_chunk")
    assert not hasattr(adaptgap.oracle, "_Chunk")
