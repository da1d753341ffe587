"""Tests for the $OPTROOT layout, config parsing, and phase runner."""

import numpy as np
import pytest

from repro.optroot import (
    OptRoot,
    PAR_PATTERN,
    load_input,
    load_property_specs,
    run_system_phases,
)
from repro.optroot.config import write_input, write_property_spec
from repro.water.cost import WaterCostFunction


@pytest.fixture
def optroot(tmp_path):
    return OptRoot.create(tmp_path / "opt")


class TestLayout:
    def test_create_builds_skeleton(self, optroot):
        assert optroot.systems_dir.is_dir()
        assert optroot.properties_dir.is_dir()

    def test_add_system_with_script(self, optroot):
        d = optroot.add_system("bulk")
        assert (d / "run.sh").is_file()
        assert optroot.systems() == ["bulk"]

    def test_par_directories_excluded_from_scan(self, optroot):
        optroot.add_system("bulk")
        optroot.par_dir(0)
        optroot.par_dir(12)
        assert optroot.systems() == ["bulk"]

    def test_par_pattern(self):
        assert PAR_PATTERN.match("par0")
        assert PAR_PATTERN.match("par123")
        assert PAR_PATTERN.match("par")
        assert not PAR_PATTERN.match("parity")
        assert not PAR_PATTERN.match("spar1")

    def test_reserved_system_name_rejected(self, optroot):
        with pytest.raises(ValueError):
            optroot.add_system("par3")
        with pytest.raises(ValueError):
            optroot.add_system("a/b")

    def test_phases_nested_order(self, optroot):
        optroot.add_system("bulk")
        optroot.add_phase("bulk", "production", "#!/bin/sh\nexit 0\n")
        scripts = optroot.phases("bulk")
        assert len(scripts) == 2
        assert scripts[0].parent.name == "bulk"
        assert scripts[1].parent.name == "production"

    def test_deeply_nested_phases(self, optroot):
        optroot.add_system("bulk")
        optroot.add_phase("bulk", "p2", "#!/bin/sh\nexit 0\n")
        optroot.add_phase("bulk", "p2/p3", "#!/bin/sh\nexit 0\n")
        assert len(optroot.phases("bulk")) == 3

    def test_processors_one_per_run_script(self, optroot):
        optroot.add_system("a")
        optroot.add_system("b")
        optroot.add_phase("b", "prod", "#!/bin/sh\nexit 0\n")
        assert optroot.n_processors_required() == 3

    def test_missing_system_raises(self, optroot):
        with pytest.raises(FileNotFoundError):
            optroot.phases("nope")


class TestInputFile:
    def test_roundtrip(self, optroot):
        verts = np.array([[0.1, 3.0, 0.5], [0.2, 3.1, 0.51],
                          [0.15, 3.2, 0.52], [0.12, 2.9, 0.6]])
        write_input(optroot, ["epsilon", "sigma", "q_h"], verts)
        parsed = load_input(optroot)
        assert parsed.names == ("epsilon", "sigma", "q_h")
        assert parsed.dim == 3
        np.testing.assert_allclose(parsed.vertices, verts)
        np.testing.assert_allclose(parsed.simplex_vertices(), verts)

    def test_d_plus_3_rows_accepted(self, optroot):
        verts = np.arange(10).reshape(5, 2).astype(float)  # d=2, d+3=5 rows
        write_input(optroot, ["a", "b"], verts)
        parsed = load_input(optroot)
        assert parsed.simplex_vertices().shape == (3, 2)

    def test_wrong_row_count_rejected(self, optroot):
        write_input(optroot, ["a", "b"], np.zeros((4, 2)))  # neither 3 nor 5
        with pytest.raises(ValueError):
            load_input(optroot)

    def test_ragged_row_rejected(self, optroot):
        optroot.input_file.write_text("a b\n1.0 2.0\n3.0\n4.0 5.0\n")
        with pytest.raises(ValueError):
            load_input(optroot)

    def test_missing_input_raises(self, optroot):
        with pytest.raises(FileNotFoundError):
            load_input(optroot)


class TestPropertySpecs:
    def test_roundtrip_into_cost_function(self, optroot):
        write_property_spec(optroot, "energy", target=-41.5, weight=1.0)
        write_property_spec(optroot, "goo", target=0.0, weight=0.5, scale=0.12)
        specs = load_property_specs(optroot)
        assert specs["energy"]["target"] == -41.5
        assert specs["goo"]["scale"] == 0.12
        cost = WaterCostFunction(specs)
        assert cost({"energy": -41.5, "goo": 0.0}) == 0.0

    def test_default_weight_absent(self, optroot):
        (optroot.properties_dir / "propx.val").write_text("2.5\n")
        specs = load_property_specs(optroot)
        assert specs["x"] == {"target": 2.5}

    def test_no_specs_raises(self, optroot):
        with pytest.raises(ValueError):
            load_property_specs(optroot)

    def test_garbage_value_raises(self, optroot):
        (optroot.properties_dir / "propx.val").write_text("not-a-number\n")
        with pytest.raises(ValueError):
            load_property_specs(optroot)


class TestPhaseRunner:
    def test_phases_run_in_order_with_environment(self, optroot, tmp_path):
        out = tmp_path / "trace.txt"
        optroot.add_system(
            "sys", f"#!/bin/sh\necho phase1 $OPT_PARAM_SIGMA >> {out}\n"
        )
        optroot.add_phase(
            "sys", "prod", f"#!/bin/sh\necho phase2 $OPT_PARAM_SIGMA >> {out}\n"
        )
        results = run_system_phases(optroot, "sys", {"sigma": 3.15})
        assert [r.ok for r in results] == [True, True]
        assert out.read_text().splitlines() == ["phase1 3.15", "phase2 3.15"]

    def test_failure_stops_subsequent_phases(self, optroot):
        optroot.add_system("sys", "#!/bin/sh\nexit 7\n")
        optroot.add_phase("sys", "prod", "#!/bin/sh\nexit 0\n")
        results = run_system_phases(optroot, "sys", {})
        assert len(results) == 1
        assert results[0].returncode == 7

    def test_stdout_captured(self, optroot):
        optroot.add_system("sys", "#!/bin/sh\necho hello\n")
        results = run_system_phases(optroot, "sys", {})
        assert results[0].stdout.strip() == "hello"

    def test_optroot_env_exported(self, optroot):
        optroot.add_system("sys", "#!/bin/sh\necho $OPTROOT\n")
        results = run_system_phases(optroot, "sys", {})
        assert results[0].stdout.strip() == str(optroot.root)
