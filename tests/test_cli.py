import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from genpos import (
    Configuration,
    configuration_from_json,
    configuration_to_json,
    random_configuration,
)
from genpos import cli
from genpos.cli import run


def payload_json(result):
    return json.loads(result.payload)


class TestDecide:
    def test_triangle_generic_exit_zero(self, fixture_files):
        result = run(["decide", "-c", fixture_files["triangle"]])
        assert result.exit_code == 0
        assert payload_json(result) == {"generic": True}

    def test_square_violation_exit_one(self, fixture_files):
        result = run(["decide", "-c", fixture_files["square"]])
        assert result.exit_code == 1
        doc = payload_json(result)
        assert doc["generic"] is False
        cert = doc["certificate"]
        assert cert["k"] == 1
        assert cert["groups"] == [[0, 1], [2, 3]]
        assert cert["witness_H"] == {
            "ambient_dimension": 2,
            "generators": [["0", "1"]],
        }

    def test_collinear_single_group(self, fixture_files):
        result = run(["decide", "-c", fixture_files["collinear3"]])
        assert result.exit_code == 1
        assert payload_json(result)["certificate"]["groups"] == [[0, 1, 2]]

    def test_payload_round_trips(self, fixture_files):
        result = run(["decide", "-c", fixture_files["square"]])
        doc = payload_json(result)
        from genpos import subspace_from_json

        kernel = subspace_from_json(doc["certificate"]["witness_H"])
        assert kernel.dim == 1

    def test_byte_stable_across_runs(self, fixture_files):
        a = run(["decide", "-c", fixture_files["square"]])
        b = run(["decide", "-c", fixture_files["square"]])
        assert a.payload == b.payload

    def test_generic_verdict_builds_no_fraction_points(self, tmp_path, monkeypatch):
        """decide runs from the JSON text to the verdict on the integer
        lattice, certificate included, and never reads the rational points;
        the certificate is the one built from them."""
        reads = []
        points = Configuration.points
        monkeypatch.setattr(
            Configuration,
            "points",
            property(lambda self: reads.append(1) or points.fget(self)),
        )
        cases = [
            (random_configuration(16, 2, 10**6, 1), None),
            (random_configuration(8, 3, 10**6, 1), None),
            (Configuration(2, ((0, 0), (0, 1), (1, 0), (1, 1))), ["0", "1"]),
            (
                Configuration(
                    2, [["0", "0"], ["0", "1/2"], ["1/3", "0"], ["1/3", "1/2"]]
                ),
                ["0", "1/2"],
            ),
        ]
        for i, (config, generator) in enumerate(cases):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(configuration_to_json(config)))
            reads.clear()
            result = run(["decide", "-c", str(path)])
            assert not reads
            if generator is None:
                assert result.exit_code == 0
                continue
            assert result.exit_code == 1
            assert result.payload == json.dumps(
                {
                    "generic": False,
                    "certificate": {
                        "k": 1,
                        "groups": [[0, 1], [2, 3]],
                        "witness_H": {
                            "ambient_dimension": 2,
                            "generators": [generator],
                        },
                    },
                },
                indent=2,
            )


class TestDecideOracle:
    def test_square(self, fixture_files):
        result = run(["decide-oracle", "-c", fixture_files["square"]])
        assert result.exit_code == 1

    def test_guard_exceeded_is_input_error(self, tmp_path):
        points = [[str(i), str(i * i)] for i in range(13)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dimension": 2, "points": points}))
        result = run(["decide-oracle", "-c", str(path)])
        assert result.exit_code == 2
        assert "guard" in result.diagnostics


class TestCheck:
    def test_collinear_vs_xaxis(self, fixture_files):
        result = run(
            ["check", "-c", fixture_files["collinear3"], "-s", fixture_files["xaxis"]]
        )
        assert result.exit_code == 1
        doc = payload_json(result)
        assert doc["pass"] is False
        assert "fiber size 3 exceeds k+1=2" in doc["violations"]
        assert "fiber size 3 exceeds k+1=2" in result.diagnostics

    def test_passing_check(self, fixture_files):
        result = run(
            ["check", "-c", fixture_files["triangle"], "-s", fixture_files["yaxis"]]
        )
        assert result.exit_code == 0
        assert payload_json(result)["pass"] is True


class TestClassical:
    def test_triangle(self, fixture_files):
        result = run(["classical", "-c", fixture_files["triangle"]])
        assert result.exit_code == 0
        assert payload_json(result) == {"in_general_position": True}

    def test_collinear_witness(self, fixture_files):
        result = run(["classical", "-c", fixture_files["collinear3"]])
        assert result.exit_code == 1
        assert payload_json(result) == {
            "in_general_position": False,
            "witness": [0, 1, 2],
        }


class TestGenerate:
    def test_cantor_graph(self):
        result = run(["generate", "cantor-graph", "--stage", "1"])
        assert result.exit_code == 0
        doc = payload_json(result)
        assert doc["points"] == [
            ["0", "0"],
            ["1/3", "1/2"],
            ["2/3", "1/2"],
            ["1", "1"],
        ]
        configuration_from_json(doc)

    def test_product_cantor(self):
        result = run(["generate", "product-cantor", "--stage", "1", "--dim", "2"])
        assert result.exit_code == 0
        doc = payload_json(result)
        assert len(doc["points"]) == 4

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["cantor-graph", "--stage", "16"], "2^17"),
            (["cantor-graph", "--stage", "10000000000"], "2^10000000001"),
            (["cantor-graph", "--stage", "3", "--max-points", "15"], "2^4"),
            (["product-cantor", "--stage", "6", "--dim", "3"], "2^18"),
            (["product-cantor", "--stage", "1", "--dim", "3", "--max-points", "7"], "2^3"),
        ],
    )
    def test_stage_over_max_points_is_refused_unbuilt(self, monkeypatch, argv, count):
        def build(*args):
            raise AssertionError("the refused stage was built")

        monkeypatch.setattr(cli, "cantor_graph_stage", build)
        monkeypatch.setattr(cli, "product_cantor_system", build)
        monkeypatch.setattr(cli, "iterate_system", build)
        result = run(["generate", *argv])
        assert result.exit_code == 2
        assert result.diagnostics == (
            f"error: stage: would build {count} points, more than --max-points "
            f"{argv[-1] if '--max-points' in argv else 65536}"
        )

    @pytest.mark.parametrize(
        "stage, code, diagnostics",
        [("-1", 2, "error: stage: must be an integer >= 0"), ("0", 0, "")],
    )
    def test_product_cantor_stage_at_most_zero_builds_no_system(
        self, monkeypatch, stage, code, diagnostics
    ):
        # 2^40 maps would never finish building: stage 0 is the origin alone,
        # and a negative stage is refused first.
        def build(*args):
            raise AssertionError("the system was built")

        monkeypatch.setattr(cli, "product_cantor_system", build)
        monkeypatch.setattr(cli, "iterate_system", build)
        result = run(["generate", "product-cantor", "--stage", stage, "--dim", "40"])
        assert result.exit_code == code
        assert result.diagnostics == diagnostics
        if code == 0:
            assert payload_json(result)["points"] == [["0"] * 40]

    @pytest.mark.parametrize(
        "argv",
        [
            ["cantor-graph", "--stage", "3", "--max-points", "16"],
            ["product-cantor", "--stage", "2", "--dim", "2", "--max-points", "16"],
            ["product-cantor", "--stage", "0", "--dim", "2", "--max-points", "1"],
        ],
    )
    def test_stage_at_max_points_is_built(self, argv):
        result = run(["generate", *argv])
        assert result.exit_code == 0
        assert len(payload_json(result)["points"]) == int(argv[-1])

    def test_random_requires_seed(self):
        result = run(
            ["generate", "random", "--points", "4", "--dim", "2", "--denominator", "10"]
        )
        assert result.exit_code == 2

    def test_random_reproducible(self):
        argv = [
            "generate",
            "random",
            "--points",
            "5",
            "--dim",
            "3",
            "--denominator",
            "100",
            "--seed",
            "77",
        ]
        assert run(argv).payload == run(argv).payload


class TestPerturb:
    def test_square(self, fixture_files):
        result = run(
            [
                "perturb",
                "-c",
                fixture_files["square"],
                "--epsilon",
                "1/100",
                "--seed",
                "3",
                "--max-attempts",
                "5",
            ]
        )
        assert result.exit_code == 0
        out = configuration_from_json(payload_json(result))
        assert len(out) == 4

    def test_requires_seed(self, fixture_files):
        result = run(
            ["perturb", "-c", fixture_files["square"], "--epsilon", "1/100"]
        )
        assert result.exit_code == 2

    def test_bad_epsilon(self, fixture_files):
        result = run(
            [
                "perturb",
                "-c",
                fixture_files["square"],
                "--epsilon",
                "0",
                "--seed",
                "1",
            ]
        )
        assert result.exit_code == 2
        assert "epsilon" in result.diagnostics


class TestHausdorff:
    def test_square_vs_collinear(self, fixture_files):
        result = run(
            ["hausdorff", "-a", fixture_files["square"], "-b", fixture_files["collinear3"]]
        )
        assert result.exit_code == 0
        assert payload_json(result) == {"hausdorff_squared": "1"}

    def test_self_distance_zero(self, fixture_files):
        result = run(
            ["hausdorff", "-a", fixture_files["square"], "-b", fixture_files["square"]]
        )
        assert payload_json(result) == {"hausdorff_squared": "0"}


class TestErrors:
    def test_unknown_command(self):
        assert run(["frobnicate"]).exit_code == 2

    def test_missing_file(self):
        result = run(["decide", "-c", "/does/not/exist.json"])
        assert result.exit_code == 2
        assert "cannot read" in result.diagnostics

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = run(["decide", "-c", str(path)])
        assert result.exit_code == 2
        assert "not valid JSON" in result.diagnostics

    def test_invalid_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 2, "points": [["0", "0.5"]]}))
        result = run(["decide", "-c", str(path)])
        assert result.exit_code == 2
        assert "points[0][1]" in result.diagnostics

    def test_duplicate_points_named(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            json.dumps({"dimension": 2, "points": [["0", "0"], ["0", "0"]]})
        )
        result = run(["decide", "-c", str(path)])
        assert result.exit_code == 2
        assert "duplicate point" in result.diagnostics

    def test_removed_threads_option_is_usage_error(self, fixture_files):
        result = run(["decide", "-c", fixture_files["square"], "--threads", "4"])
        assert result.exit_code == 2
        assert "--threads" in result.diagnostics

    def test_usage_error_then_valid_call(self, fixture_files):
        # One parser serves every call in the process; a usage error must
        # leave nothing behind for the next call.
        assert cli._build_parser() is cli._build_parser()
        assert run(["decide", "--config"]).exit_code == 2
        result = run(["decide", "-c", fixture_files["square"]])
        assert result.exit_code == 1
        assert payload_json(result)["certificate"]["groups"] == [[0, 1], [2, 3]]

    def test_help_exits_zero(self):
        result = run(["--help"])
        assert result.exit_code == 0
        assert "decide" in result.payload


HOSTILE = {
    "5000-digit rational string": json.dumps(
        {"dimension": 2, "points": [["1" * 5000, "0"], ["0", "1"]]}
    ).encode(),
    "5000-digit JSON integer": b'{"dimension": 2, "points": [[%s, 0], [0, 1]]}'
    % (b"1" * 5000),
    "100k-deep nesting": b"[" * 100_000 + b"]" * 100_000,
    "not UTF-8": b"\xff\xfe{",
    # the witness difference 1/q - 1/p has a ~6000-digit denominator
    "3000-digit coprime denominators in the result": json.dumps(
        {
            "dimension": 2,
            "points": [
                [f"1/{10**2999 + 7}", "0"],
                [f"1/{10**2999 + 9}", "0"],
                ["5", "0"],
            ],
        }
    ).encode(),
}


class TestHostileInput:
    """Exit 0, 1 or 2 for every input file, never a traceback."""

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_named_inputs_are_input_errors(self, tmp_path, name):
        path = tmp_path / "hostile.json"
        path.write_bytes(HOSTILE[name])
        result = run(["decide", "-c", str(path)])
        assert result.exit_code == 2
        assert result.diagnostics.startswith("error: ")
        assert len(result.diagnostics) < 400

    # The fixture files are only read, so examples may share them.
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        data=st.one_of(
            st.binary(max_size=200), st.text(max_size=200).map(str.encode)
        )
    )
    def test_arbitrary_bytes_and_text(self, tmp_path, fixture_files, data):
        path = tmp_path / "fuzz.json"
        path.write_bytes(data)
        for argv in (
            ["decide", "-c", str(path)],
            ["check", "-c", str(path), "-s", fixture_files["xaxis"]],
            ["check", "-c", fixture_files["square"], "-s", str(path)],
        ):
            assert run(argv).exit_code in (0, 1, 2)


# Structured JSON documents for the loaders: a well-formed document, then at
# most one level (dimension, row list, one row or one cell) replaced by any
# JSON value, so all three exit codes occur.
_RATIONAL = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=2).map(str),
    st.integers(min_value=-2, max_value=2),
)
_JSON_VALUE = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-3, max_value=3),
        st.floats(),
        st.text(max_size=4),
        _RATIONAL,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=5,
)


@st.composite
def _document(draw, dimension_key, rows_key, max_rows):
    dimension = draw(st.integers(min_value=1, max_value=3))
    rows = draw(
        st.lists(
            st.lists(_RATIONAL, min_size=dimension, max_size=dimension),
            min_size=1,
            max_size=max_rows,
        )
    )
    level = draw(st.sampled_from(["none", "dimension", "rows", "row", "cell"]))
    if level == "dimension":
        dimension = draw(_JSON_VALUE)
    elif level == "rows":
        rows = draw(_JSON_VALUE)
    elif level in ("row", "cell"):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        if level == "row":
            rows[i] = draw(_JSON_VALUE)
        else:
            j = draw(st.integers(min_value=0, max_value=len(rows[i]) - 1))
            rows[i][j] = draw(_JSON_VALUE)
    return {dimension_key: dimension, rows_key: rows}


class TestStructuredInput:
    """Documents of the right outline with wrong parts still exit 0, 1 or 2,
    and every exit 2 is an error diagnostic."""

    # The fixture files are only read, so examples may share them.
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        config=_document("dimension", "points", max_rows=6),
        kernel=_document("ambient_dimension", "generators", max_rows=2),
    )
    def test_decide_and_check_exit_codes(self, tmp_path, fixture_files, config, kernel):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        kernel_path = tmp_path / "kernel.json"
        kernel_path.write_text(json.dumps(kernel), encoding="utf-8")
        for argv in (
            ["decide", "-c", str(config_path)],
            ["check", "-c", str(config_path), "-s", fixture_files["xaxis"]],
            ["check", "-c", fixture_files["square"], "-s", str(kernel_path)],
        ):
            result = run(argv)
            assert result.exit_code in (0, 1, 2)
            if result.exit_code == 2:
                assert result.diagnostics.startswith("error: ")


class TestSelftest:
    def test_battery_passes(self):
        result = run(["selftest"])
        assert result.exit_code == 0
        doc = payload_json(result)
        assert doc["failed"] == 0
        assert doc["passed"] == len(doc["checks"])
        assert all(c["passed"] for c in doc["checks"])

    def test_stdout_is_pinned_byte_for_byte(self):
        # The battery is seeded, so its report is the same bytes on every
        # run and every supported Python; a change to the engine that moves
        # any verdict, witness or count in it changes this digest.
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-m", "genpos.cli", "selftest"],
            env=env, capture_output=True, check=True,
        )
        assert hashlib.sha256(out.stdout).hexdigest() == (
            "1677a746dbd0b0d373599090bff9dae9df02ffe145f02da53f118dae148903a4"
        )

    def test_importing_the_cli_leaves_the_battery_unloaded(self):
        # Only `selftest` needs the battery, so `decide` does not pay for it.
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, genpos.cli; print('genpos.selftest' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout == "False\n"


class TestClosedStdout:
    def test_reader_closing_early_keeps_the_exit_code(self):
        # A stage-12 Cantor graph is about 400 kB of JSON, more than a pipe
        # holds, so the CLI is still writing when the reader goes away, as
        # with `genpos generate cantor-graph --stage 12 | head -c 10`.
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "genpos.cli", "generate", "cantor-graph",
             "--stage", "12"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert stderr == b""
