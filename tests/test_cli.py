"""Config parsing, validation and the experiment driver.

Full-size experiment runs live in the acceptance suite; here the driver
is exercised end to end on small, fast configurations plus every
config-error path the parser promises to catch.
"""

import json
from pathlib import Path

import pytest

from madelung_lab.cli import EXPERIMENTS, main, parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, text, name="test.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestListing:
    def test_lists_every_experiment(self, capsys):
        assert run_cli(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert len(EXPERIMENTS) == 4

    def test_one_shipped_config_per_experiment(self):
        named = sorted(parse_config(path)[0]["experiment"]
                       for path in CONFIG_DIR.glob("*.cfg"))
        assert named == sorted(EXPERIMENTS)


class TestValidate:
    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.cfg")),
                             ids=lambda p: p.stem)
    def test_shipped_configs_are_valid(self, config, capsys):
        assert run_cli(["validate", str(config)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert run_cli(["validate", "/nonexistent/path.cfg"]) == 1
        assert "/nonexistent/path.cfg" in capsys.readouterr().err

    def test_unknown_experiment(self, tmp_path, capsys):
        path = write_config(tmp_path, "experiment = warp-drive\n")
        assert run_cli(["validate", path]) == 1
        assert "warp-drive" in capsys.readouterr().err

    def test_missing_experiment_key(self, tmp_path, capsys):
        path = write_config(tmp_path, "grid.n_x = 512\n")
        assert run_cli(["validate", path]) == 1
        assert "experiment" in capsys.readouterr().err

    def test_bad_grid_size_names_the_key(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            "experiment = bb-compare\ngrid.n_x = 500\n")
        assert run_cli(["validate", path]) == 1
        assert "n_x" in capsys.readouterr().err

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            "experiment = bb-compare\nmc.seed = 1\nmc.seed = 2\n")
        assert run_cli(["validate", path]) == 1
        err = capsys.readouterr().err
        assert "mc.seed" in err

    def test_non_integer_value(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            "experiment = bb-compare\nmc.N = many\n")
        assert run_cli(["validate", path]) == 1
        assert "integer" in capsys.readouterr().err

    def test_malformed_line_reports_line_number(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            "experiment = bb-compare\nthis line has no sign\n")
        assert run_cli(["validate", path]) == 1
        assert "2" in capsys.readouterr().err

    def test_unknown_theorem_base(self, tmp_path, capsys):
        path = write_config(tmp_path, (
            "experiment = theorem1-verify\n"
            "theorem.base = foo\n"))
        assert run_cli(["validate", path]) == 1
        assert "theorem.base" in capsys.readouterr().err

    @pytest.mark.parametrize("text, expected", [
        pytest.param("experiment = gaussian-benchmark\nmc.NN = 5\n",
                     ":2: unknown key 'mc.NN'", id="typo-mc-NN"),
        pytest.param("experiment = gaussian-benchmark\ngrid.nx = 64\n",
                     ":2: unknown key 'grid.nx'", id="typo-grid-nx"),
        pytest.param("experiment = gaussian-benchmark\nwrite_fields = maybe\n",
                     "write_fields", id="write-fields-not-boolean"),
        pytest.param("experiment = bb-compare\ntransport.n_pairs = 0\n",
                     "transport.n_pairs", id="no-transport-pairs"),
        pytest.param("experiment = theorem1-verify\n"
                     "perturbations.space_support = -20,20\n",
                     "perturbations.space_support", id="support-outside-box"),
        pytest.param("experiment = renormalization-convergence\nmc.n = 100\n"
                     "mc.n_list = 64,256\n", "mc.n: 100", id="n-not-in-n-list"),
    ])
    def test_refused_before_running(self, text, expected, tmp_path, monkeypatch,
                                    capsys):
        path = write_config(tmp_path, text)
        assert run_cli(["validate", path]) == 1
        assert expected in capsys.readouterr().err
        # run loads the config the same way, so it refuses it before any work
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path / "out"))
        assert run_cli(["run", path]) == 1
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_n_list_binds_only_the_convergence_run(self, tmp_path):
        path = write_config(tmp_path, ("experiment = gaussian-benchmark\n"
                                       "mc.n = 100\nmc.n_list = 64,256\n"))
        assert run_cli(["validate", path]) == 0

    def test_oversized_amplitude_still_validates(self, tmp_path, capsys):
        # amplitudes beyond the positivity budget are rescaled at build
        # time, not refused
        path = write_config(tmp_path, (
            "experiment = theorem1-verify\n"
            "theorem.n_specs = 1\n"
            "perturbations.amplitude = 5.0\n"))
        assert run_cli(["validate", path]) == 0


class TestRun:
    def test_transport_experiment_end_to_end(self, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "out"
        monkeypatch.setenv("OUTPUT_DIR", str(out_dir))
        path = write_config(tmp_path, "experiment = bb-compare\n")
        assert run_cli(["run", path]) == 0
        assert "checks passed" in capsys.readouterr().out

        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["config"]["experiment"] == "bb-compare"
        assert all(entry["ok"] for entry in summary["checks"].values())
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["config_sha256"]) == 64
        assert manifest["experiment"] == "bb-compare"
        assert (out_dir / "first_pair_map.csv").exists()

    # Two pairs: the sixth pair of transport.seed 3 trips the boundary
    # guard, which test_bb_compare_draws_fit_the_box records.
    @pytest.mark.parametrize("text, seed", [
        ("experiment = bb-compare\ntransport.seed = 3\ntransport.n_pairs = 2\n", 3),
        ("experiment = theorem1-verify\ntheorem.seed = 1005\ntheorem.n_specs = 0\n",
         1005),
    ], ids=["bb-compare", "theorem1-verify"])
    def test_manifest_records_the_seed_drawn_from(self, text, seed, tmp_path,
                                                  monkeypatch, capsys):
        out_dir = tmp_path / "out"
        monkeypatch.setenv("OUTPUT_DIR", str(out_dir))
        assert run_cli(["run", write_config(tmp_path, text)]) == 0
        capsys.readouterr()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == seed

    @pytest.mark.xfail(strict=True, reason=(
        "pair 5 of transport.seed 3 (mean -1.99, std 1.28) leaves a finite "
        "action integrand of 1.006e-12 at the edge of the default box, above "
        "the 1e-12 boundary tolerance, so the run stops with BoundaryLeak"))
    def test_bb_compare_draws_fit_the_box(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path / "out"))
        path = write_config(tmp_path, "experiment = bb-compare\ntransport.seed = 3\n")
        assert run_cli(["run", path]) == 0

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, "experiment = bb-compare\n")
        blobs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            monkeypatch.setenv("OUTPUT_DIR", str(out_dir))
            assert run_cli(["run", path]) == 0
            blobs.append((out_dir / "summary.json").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    def test_failing_check_exits_two(self, tmp_path, monkeypatch, capsys):
        # 400 samples cannot reproduce the marginals to 0.03 in L1
        out_dir = tmp_path / "out"
        monkeypatch.setenv("OUTPUT_DIR", str(out_dir))
        path = write_config(tmp_path,
                            "experiment = gaussian-benchmark\nmc.N = 400\n")
        assert run_cli(["run", path]) == 2
        out = capsys.readouterr().out
        assert "FAIL mc-marginals" in out
        # summary and marginals still written, with the failing entry recorded
        checks = json.loads((out_dir / "summary.json").read_text())["checks"]
        assert not checks["mc-marginals"]["ok"]
        assert {"initial-mean", "initial-variance"} <= set(checks)
        lines = (out_dir / "marginals.csv").read_text().splitlines()
        assert lines[0] == "t,x,histogram,reference"
        assert len(lines) == 1 + 5 * 512

    def test_vacuous_theorem_run(self, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "out"
        monkeypatch.setenv("OUTPUT_DIR", str(out_dir))
        path = write_config(tmp_path, (
            "experiment = theorem1-verify\n"
            "theorem.n_specs = 0\n"))
        assert run_cli(["run", path]) == 0
        capsys.readouterr()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["report"]["n_specs"] == 0
