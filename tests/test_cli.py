import csv
import json
import math
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from horobary import extension
from horobary.cli import main
from horobary.hyperboloid import UnitTangent, origin, tangent_basis
from horobary.measures import DiscreteMeasure, save_measure
from horobary.moebius import BoundaryMap, map_to_dict
from horobary.sampling import random_lorentz


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def lopsided_tangent_measure(path):
    o = origin(2)
    E = tangent_basis(o)
    dirs = [E[0], (E[0] + E[1]) / math.sqrt(2.0), E[1]]
    nu = DiscreteMeasure.from_atoms(
        [UnitTangent(o, d) for d in dirs], np.array([0.5, 0.3, 0.2])
    )
    save_measure(nu, path)
    return str(path)


class TestConfig:
    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"command": "verify",\n "seed": oops}\n')
        assert main(["--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "column" in err

    def test_missing_config_file(self, capsys):
        assert main(["--config", "/no/such/config.json"]) == 2

    def test_command_mismatch(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"command": "audit"})
        assert main(["verify", "--config", cfg]) == 2

    def test_no_command_anywhere(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"seed": 1})
        assert main(["--config", cfg]) == 2

    def test_decreasing_schedule_rejected(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "c.json",
            {"command": "converge-p", "p_schedule": [4.0, 2.0], "out": str(tmp_path)},
        )
        assert main(["--config", cfg]) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"command": "verify", "speed": 9})
        assert main(["--config", cfg]) == 2

    def test_extend_requires_a_map(self, tmp_path, capsys):
        assert main(["extend", "--out", str(tmp_path)]) == 2


class TestCommands:
    def test_extend_identity_map_returns_inputs(self, tmp_path):
        mp = write_json(tmp_path / "map.json", map_to_dict(BoundaryMap.identity(2)))
        pts = write_json(
            tmp_path / "pts.json",
            {"points": [[math.cosh(0.8), math.sinh(0.8), 0.0], [1.0, 0.0, 0.0]]},
        )
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "command": "extend",
                "inputs": {"map": mp, "points": pts},
                "seed": 3,
                "out": str(tmp_path),
            },
        )
        assert main(["--config", cfg]) == 0
        rows = read_csv(tmp_path / "extend.csv")
        assert len(rows) == 2
        for row in rows:
            for i in range(3):
                assert abs(float(row[f"image_{i}"]) - float(row[f"x_{i}"])) < 1e-6

    def test_extend_lorentz_map_applies_matrix(self, tmp_path):
        rng = np.random.default_rng(8)
        g = random_lorentz(rng)
        mp = write_json(tmp_path / "map.json", map_to_dict(BoundaryMap("lorentz", g)))
        x = np.array([math.cosh(1.1), math.sinh(1.1), 0.0])
        pts = write_json(tmp_path / "pts.json", {"points": [list(x)]})
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "command": "extend",
                "inputs": {"map": mp, "points": pts},
                "seed": 0,
                "out": str(tmp_path),
            },
        )
        assert main(["--config", cfg]) == 0
        row = read_csv(tmp_path / "extend.csv")[0]
        image = np.array([float(row[f"image_{i}"]) for i in range(3)])
        assert np.max(np.abs(image - g @ x)) < 1e-6

    def test_converge_p_symmetric_distances_vanish(self, tmp_path):
        assert main(["converge-p", "--seed", "0", "--grid", "16", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "converge_p.csv")
        assert [row["p"] for row in rows][-1] == "inf"
        assert all(float(row["distance"]) == 0.0 for row in rows)

    def test_converge_p_truncated_schedule_fails(self, tmp_path):
        nu = lopsided_tangent_measure(tmp_path / "nu.json")
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "command": "converge-p",
                "inputs": {"measure": nu},
                "p_schedule": [1.0, 2.0],
                "seed": 0,
                "out": str(tmp_path),
            },
        )
        assert main(["--config", cfg]) == 3
        report = json.load(open(tmp_path / "converge_p.json"))
        assert not report["pass"]
        assert report["final_distance"] > 1e-3

    def test_converge_flow_symmetric(self, tmp_path):
        assert main(["converge-flow", "--seed", "0", "--grid", "16", "--out", str(tmp_path)]) == 0
        report = json.load(open(tmp_path / "converge_flow.json"))
        assert report["pass"]
        assert report["tail_monotone"]

    def test_barycenter_from_measure_file(self, tmp_path):
        o = origin(2)
        pts = [
            np.array([math.cosh(s), math.sinh(s) * c, math.sinh(s) * t])
            for s, c, t in ((0.5, 1.0, 0.0), (0.7, 0.0, 1.0), (0.4, -1.0, 0.0))
        ]
        mu = DiscreteMeasure("space", np.stack(pts), np.full(3, 1.0 / 3.0))
        path = tmp_path / "mu.json"
        save_measure(mu, path)
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "command": "barycenter",
                "inputs": {"measure": str(path)},
                "p_schedule": [1.0, 2.0],
                "seed": 0,
                "out": str(tmp_path),
            },
        )
        assert main(["--config", cfg]) == 0
        rows = read_csv(tmp_path / "barycenter.csv")
        assert [row["p"] for row in rows] == ["1", "2"]

    def test_tolerance_scale_is_recorded(self, tmp_path):
        assert (
            main(
                [
                    "converge-p",
                    "--seed",
                    "0",
                    "--grid",
                    "16",
                    "--tolerance-scale",
                    "10",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        report = json.load(open(tmp_path / "converge_p.json"))
        assert abs(report["tolerance"] - 1e-2) < 1e-15

    def test_table_line_endings(self, tmp_path):
        # ExperimentTable reports end their rows in CRLF, the others in LF
        assert main(["converge-p", "--seed", "0", "--grid", "16", "--out", str(tmp_path)]) == 0
        assert main(["barycenter", "--seed", "0", "--out", str(tmp_path)]) == 0
        converge = (tmp_path / "converge_p.csv").read_bytes()
        assert converge.endswith(b"\r\n")
        assert converge.count(b"\n") == converge.count(b"\r\n") == 6
        barycenter = (tmp_path / "barycenter.csv").read_bytes()
        assert barycenter.endswith(b"\n")
        assert b"\r" not in barycenter
        assert barycenter.count(b"\n") == 5

    @pytest.mark.parametrize(
        "command, report",
        [
            ("barycenter", "barycenter"),
            ("circumcenter", "circumcenter"),
            ("extend", "extend"),
            ("extend", "nonconvergence"),
            ("converge-p", "converge_p"),
            ("converge-flow", "converge_flow"),
            ("audit", "audit"),
            ("verify", "verify"),
        ],
    )
    def test_every_report_carries_the_run_header(self, tmp_path, command, report):
        mp = write_json(tmp_path / "map.json", map_to_dict(BoundaryMap.identity(2)))
        # at grid 16 half of extend's seeded points are gapped and it stops at
        # the first with nonconvergence.json; at grid 64 none are
        grid = "64" if report == "extend" else "16"
        hashes = set()
        for out in ("a", "b"):
            cfg = write_json(
                tmp_path / "cfg.json",
                {"command": command, "inputs": {"map": mp}, "out": str(tmp_path / out)},
            )
            main(["--config", cfg, "--seed", "9", "--grid", grid])
            header = json.load(open(tmp_path / out / f"{report}.json"))
            assert header["command"] == command
            assert header["seed"] == 9
            hashes.add(header["config_hash"])
        # the hash covers the configuration, not the report directory
        assert len(hashes) == 1 and len(hashes.pop()) == 64

    def test_console_script_entry(self):
        out = subprocess.run(
            [sys.executable, "-m", "horobary.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert "verify" in out.stdout


class TestVerify:
    def test_verify_passes_and_is_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        c = tmp_path / "c"
        assert main(["verify", "--seed", "4", "--out", str(a)]) == 0
        assert main(["verify", "--seed", "4", "--out", str(b)]) == 0
        assert main(["verify", "--seed", "5", "--out", str(c)]) == 0
        bytes_a = (a / "verify.json").read_bytes()
        assert bytes_a == (b / "verify.json").read_bytes()
        assert bytes_a != (c / "verify.json").read_bytes()
        report = json.loads(bytes_a)
        assert report["pass"]
        names = {s["audit"] for s in report["suites"]}
        assert names == {
            "gate-rejection",
            "balance",
            "hull-certificate",
            "naturality",
            "derivative-identity",
            "main-inequality",
            "lipschitz",
            "inverse-consistency",
        }
        assert all("rows" not in s for s in report["suites"])

    def test_verify_solves_each_point_once(self, tmp_path, monkeypatch):
        # hull and naturality share one p = inf solve per case, the
        # Lipschitz and round-trip audits share the forward solve of each
        # pair point, the inequality and derivative audits take x's solve
        # from mu_x_p, and the balance and derivative audits share mu_x_p
        # at p = 64; every extension solve is one extension.minimize call
        solves = Counter()
        solve = extension.minimize

        def counted(spec, cfg=None):
            solves[spec.exponent] += 1
            return solve(spec, cfg)

        monkeypatch.setattr(extension, "minimize", counted)
        assert main(["verify", "--seed", "4", "--out", str(tmp_path)]) == 0
        assert solves == {math.inf: 32, 64.0: 28, 4.0: 6, 16.0: 6}

    def test_verify_conjugates_each_point_once(self, tmp_path, monkeypatch):
        # 8 case points, the 2 x 2 sides of the derivative audit's central
        # differences, the 16 pair points and their 8 forward images
        seen = Counter()
        conjugate = extension.conjugacy_footpoints

        def counted(f, x, grid):
            seen[id(f), id(grid), x.coords.tobytes()] += 1
            return conjugate(f, x, grid)

        monkeypatch.setattr(extension, "conjugacy_footpoints", counted)
        assert main(["verify", "--seed", "4", "--out", str(tmp_path)]) == 0
        assert sum(seen.values()) == 36
        assert set(seen.values()) == {1}
