"""Public-API surface tests."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import exceptions


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.crossbar",
            "repro.devices",
            "repro.noc",
            "repro.baselines",
            "repro.costmodel",
            "repro.workloads",
            "repro.experiments",
            "repro.analysis",
            "repro.obs",
            "repro.reliability",
            "repro.service",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestExceptionHierarchy:
    def test_all_errors_are_repro_errors(self):
        for cls in (
            exceptions.MappingError,
            exceptions.CrossbarSolveError,
            exceptions.ConvergenceError,
            exceptions.InfeasibleProblemError,
            exceptions.PartitionError,
            exceptions.ServiceError,
            exceptions.QueueFullError,
        ):
            assert issubclass(cls, exceptions.ReproError)
            assert issubclass(cls, Exception)

    def test_catchable_via_base(self):
        with pytest.raises(exceptions.ReproError):
            raise exceptions.MappingError("negative coefficient")


class TestImportCost:
    def test_solve_and_serve_imports_load_no_optional_heavyweights(self):
        """The solve and serve surfaces import neither scipy.optimize,
        scipy.sparse nor networkx; the three callers that need them
        import them when called, and still work."""
        script = textwrap.dedent(
            """
            import json, sys
            import repro, repro.service, repro.core.batch_solver
            import repro.core.scalable_solver, repro.experiments.runner
            heavy = ("scipy.optimize", "scipy.sparse", "networkx")
            loaded = [name for name in heavy if name in sys.modules]

            import numpy as np
            from repro.baselines import solve_scipy
            from repro.core import LinearProgram
            from repro.crossbar import DetailedCrossbarCircuit
            from repro.workloads import random_routing_network

            lp = LinearProgram(
                c=np.array([3.0, 2.0]),
                A=np.array([[1.0, 1.0], [1.0, 3.0]]),
                b=np.array([4.0, 6.0]),
            )
            circuit = DetailedCrossbarCircuit(
                np.full((2, 2), 1e-4), g_sense=1e-3, wire_resistance=1.0
            )
            graph = random_routing_network(4, rng=np.random.default_rng(0))
            print(json.dumps({
                "loaded": loaded,
                "objective": solve_scipy(lp).objective,
                "ir_drop": (
                    circuit.ideal_multiply(np.ones(2))
                    - circuit.multiply(np.ones(2))
                ).tolist(),
                "edges": graph.number_of_edges(),
            }))
            """
        )
        src = str(Path(importlib.import_module("repro").__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        report = json.loads(completed.stdout)
        assert report["loaded"] == []
        assert report["objective"] == pytest.approx(12.0)
        assert all(drop > 0.0 for drop in report["ir_drop"])
        assert report["edges"] >= 3
