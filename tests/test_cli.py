import dataclasses
import json
import math
import os
import pathlib
import platform
import re

import numpy as np
import pytest

import qnt
from qnt import lossy, protocols, stats
from qnt.cli import _parsers, build_parser, config_from_args, main, parse_int_list, parse_spam_grid
from qnt.experiments import (
    CSV_COLUMNS,
    EXPERIMENTS,
    LOSS_FIBER,
    LOSS_MEMORY_T1_S,
    LOSS_MEMORY_T2_S,
    MAX_TRIALS,
    SWEEP_GRID,
    ExperimentConfig,
    Row,
    _trial_seed,
    rows_to_csv,
    run_experiment,
)
from qnt.lossy import MAX_SLOTS as LOSS_MAX_SLOTS
from qnt.pauli import PauliChannel
from qnt.protocols import SpamModel

DATA_DIR = pathlib.Path(__file__).parent / "data"


def small_cfg(**overrides) -> ExperimentConfig:
    """A small config; its sample grids are set only where the experiment reads them."""
    reads = getattr(EXPERIMENTS.get(overrides.get("experiment", "star").replace("-", "_")), "reads", ())
    base = dict(experiment="star", seed=7, trials=20)
    base.update({name: grid for name, grid in (("m_samples", (2000,)), ("n_samples", (2000, 4000)))
                 if name in reads})
    base.update(overrides)
    return ExperimentConfig(**base)


RATIO_GRID = dict(m_samples=(1000,), n_samples=(1000,))


def normalize_runtime(text: str) -> str:
    """Blank the wall-clock column and the header's versions, the only fields
    that differ between runs and between hosts."""
    lines = text.splitlines()
    config = json.loads(lines[0].removeprefix("# config "))
    config["versions"] = dict.fromkeys(config["versions"], "_")
    out = ["# config " + json.dumps(config, sort_keys=True), lines[1]]
    runtime_idx = CSV_COLUMNS.index("runtime_ms")
    for line in lines[2:]:
        cells = line.split(",")
        cells[runtime_idx] = "_"
        out.append(",".join(cells))
    return "\n".join(out)


# Options of other subcommands (sweep reads no --s or --m) and abbreviated
# options; each is rejected as an unrecognized argument.
UNKNOWN_OPTIONS = [
    ["etch", "--n-samples", "5"],
    ["etch", "--q", "0.1"],
    ["loss", "--m-samples", "100"],
    ["loss", "--topology", "net.topo"],
    ["star", "--topology", "net.topo"],
    ["spam-s", "--t-send", "0.5"],
    ["sweep", "--s", "0.9"],
    ["sweep", "--m", "1"],
    ["star", "--n", "8000"],
]

# List values the option's parser cannot read, and the error naming the chunk and the form it expects.
UNREADABLE_LISTS = {
    ("star", "--m-samples", "1.5"): "argument --m-samples: cannot read '1.5': expected N or start:stop:step",
    ("star", "--m-samples", "1:x:1"): "argument --m-samples: cannot read '1:x:1': expected N or start:stop:step",
    ("star", "--n-samples", "100, 1:2"): "argument --n-samples: cannot read '1:2': expected N or start:stop:step",
    ("star", "--q", "a,b,c"): "argument --q: cannot read 'a': expected a number",
    ("loss", "--t-send", "x"): "argument --t-send: cannot read 'x': expected a number",
    ("sweep", "--spam-grid", "1:1:1"): "argument --spam-grid: cannot read '1:1:1': expected s:m;s:m",
    ("sweep", "--spam-grid", "1:x"): "argument --spam-grid: cannot read '1:x': expected s:m;s:m",
    ("sweep", "--spam-grid", "1:1; 0.9"): "argument --spam-grid: cannot read '0.9': expected s:m;s:m",
}

# A small run of each subcommand, without --trials so that --full-scale changes
# the trial count.  N >= 8000 for star and sweep and N >= 4000 for spam-s and
# spam-m keep the chance that a trial draws a unicast count of exactly N/2 (a
# degenerate, NaN trial) negligible, under the changed options too.
OPTION_PROBE_BASE = {
    "star": ["--m-samples", "8000", "--n-samples", "8000"],
    "sweep": ["--spam-grid", "1:1", "--m-samples", "8000", "--n-samples", "8000"],
    "spam-s": ["--m-samples", "4000", "--n-samples", "4000"],
    "spam-m": ["--m-samples", "4000", "--n-samples", "4000"],
    "etch": ["--m-samples", "4000"],
    "loss": ["--t-send", "0.5", "--t-cutoff", "5", "--horizon", "30"],
}
# A value of each option that differs from the base and from the default.
OPTION_PROBE_VALUE = {
    "--topology": str(DATA_DIR / "tree60_reversed.topo"),
    "--s": "0.9",
    "--m": "0.9",
    "--q": "0.4,0.25,0.35",
    "--m-samples": "9000",
    "--n-samples": "9000",
    "--spam-grid": "0.9:0.9",
    "--t-send": "0.25",
    "--t-cutoff": "0.35",
    "--horizon": "40",
    "--trials": "50",
    "--seed": "8",
    "--full-scale": None,
}


class TestArgParsing:
    def test_int_list_forms(self):
        assert parse_int_list("100,200") == (100, 200)
        assert parse_int_list("100:500:200") == (100, 300, 500)
        assert parse_int_list("50,100:300:100") == (50, 100, 200, 300)

    def test_spam_grid(self):
        assert parse_spam_grid("1:1;0.9:0.8") == ((1.0, 1.0), (0.9, 0.8))

    def test_parser_builds_config(self):
        args = build_parser().parse_args(
            ["star", "--trials", "5", "--seed", "3", "--m-samples", "100", "--n-samples", "100"]
        )
        cfg = config_from_args(args)
        assert cfg.experiment == "star"
        assert cfg.trials == 5
        assert cfg.seed == 3
        assert cfg.m_samples == (100,)

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["loss", "--trials", "1", "--seed", "-3"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage: qnt loss " in err
        assert "qnt loss: error: seed must be non-negative, got -3" in err

    def test_successive_mains_share_no_state(self, capsys):
        configs = []
        first = ["star", "--s", "0.9", "--seed", "1", "--m-samples", "10000", "--n-samples", "10000"]
        for argv in (first, ["star"]):
            assert main(argv) == 0
            header = capsys.readouterr().out.splitlines()[0]
            configs.append(json.loads(header.removeprefix("# config ")))
        assert (configs[0]["s"], configs[0]["seed"]) == (0.9, 1)
        assert (configs[1]["s"], configs[1]["seed"]) == (1.0, 12345)
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["spam-s", "--q", "0.5,0.25,7"], "spam-s needs 2 q values, got 3"),
            (["spam-s", "--q", "0.5,0.25,0.35"], "spam-s needs 2 q values, got 3"),
            (["spam-m", "--q", "0.5,0.25,0.35"], "spam-m needs 2 q values, got 3"),
            (["star", "--q", "0.5,0.25,0.35,0.1"], "star needs 3 q values, got 4"),
            # PauliChannel accepts 1 + 1e-12 as rounding slack; a protocol probability would pass 1
            (["star", "--q", "0.5,1.0000000000001,1.0000000000001"],
             "q2 = 1.0000000000001 is not a channel: |q| exceeds 1"),
            (["spam-s", "--q", "1.0000000000001,1.0000000000001"],
             "q1 = 1.0000000000001 is not a channel: |q| exceeds 1"),
        ],
    )
    def test_q_values_are_exactly_those_read_and_at_most_1(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(f"qnt {argv[0]}: error: {message}\n")

    def test_q_of_exactly_1_is_accepted(self, capsys):
        assert ExperimentConfig("spam-s", q_params=(1.0, 1.0)).channels == (PauliChannel(1, 1, 1),) * 2
        assert main(["star", "--q", "0.5,1,1", "--trials", "2", "--m-samples", "1000",
                     "--n-samples", "1000"]) == 0
        assert capsys.readouterr().out.splitlines()[2].startswith("star,1000,1000,1,1,0.5,")

    @pytest.mark.parametrize("name, q_params", [("star", [0.5, 0.25, 0.35]), ("sweep", [0.5, 0.25, 0.35]),
                                                ("loss", [0.5, 0.25, 0.35]), ("spam-s", [0.5, 0.25]),
                                                ("spam-m", [0.5, 0.25])])
    def test_default_header_records_the_q_values_read(self, name, q_params):
        header = rows_to_csv(config_from_args(build_parser().parse_args([name])), []).splitlines()[0]
        assert json.loads(header.removeprefix("# config "))["q_params"] == q_params

    def test_loss_accepts_zero_q1(self):
        # the loss estimate divides by q2 q3 only, so q1 = 0 is a valid truth
        args = build_parser().parse_args(["loss", "--q", "0,0.25,0.35"])
        assert config_from_args(args).q_params == (0.0, 0.25, 0.35)

    def test_loss_accepts_infinite_cutoff(self, capsys):
        # an infinite cutoff means that a waiting qubit never expires
        argv = ["loss", "--t-send", "0.5", "--t-cutoff", "inf", "--horizon", "60", "--trials", "1"]
        assert main(argv) == 0
        header, row = capsys.readouterr().out.splitlines()[1:]
        assert dict(zip(header.split(","), row.split(",")))["t_cutoff_s"] == "inf"

    @pytest.mark.parametrize("argv, slots", [
        (["loss", "--t-send", "1e-9"], "3.6e+12"),
        (["loss", "--horizon", "1e13", "--t-send", "0.5"], "2e+13"),
        (["loss", "--horizon", "1e300", "--t-send", "1e-300"], "inf"),
    ])
    def test_loss_schedule_past_the_slot_cap_is_a_usage_error(self, argv, slots, capsys):
        # the arrival draws of such a schedule would not fit in memory
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage: qnt loss " in err
        assert f"gives {slots} send slots, more than the cap of 1e+08" in err

    def test_loss_slot_cap_is_inclusive(self):
        assert LOSS_MAX_SLOTS == 10**8
        ExperimentConfig("loss", t_send_s=(0.5,), horizon_s=LOSS_MAX_SLOTS / 2)
        with pytest.raises(ValueError, match="gives 100000001 send slots"):
            ExperimentConfig("loss", t_send_s=(0.5,), horizon_s=LOSS_MAX_SLOTS / 2 + 0.5)

    @pytest.mark.parametrize("argv", [
        ["star", "--trials", "9223372036854775808", "--m-samples", "8000", "--n-samples", "8000"],
        ["loss", "--trials", "9223372036854775808", "--t-send", "0.5", "--horizon", "10"],
    ])
    def test_trials_past_the_cap_is_a_usage_error(self, argv, capsys):
        # a ratio cell would not fit in memory, and loss would loop over the trials for ever
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: qnt {argv[0]} " in err
        assert f"qnt {argv[0]}: error: trials must be in [1, 1e+07], got 9223372036854775808" in err

    def test_trial_cap_is_inclusive(self):
        assert MAX_TRIALS == 10**7
        assert ExperimentConfig("star", trials=MAX_TRIALS).trials == MAX_TRIALS
        with pytest.raises(ValueError, match=r"trials must be in \[1, 1e\+07\], got 10000001"):
            ExperimentConfig("star", trials=MAX_TRIALS + 1)

    def test_etch_trial_cap_counts_the_edges(self):
        # an etch run holds every edge's trials at once; the bundled fig1 has 19 edges
        assert ExperimentConfig("etch", trials=526315).trials == 526315
        with pytest.raises(ValueError, match=r"etch holds trials x edges = 526316 x 19 estimates "
                                             r"at once, at most 1e\+07"):
            ExperimentConfig("etch", trials=526316)

    @pytest.mark.parametrize("argv", [
        ["sweep"],
        ["etch", "--m", "1e-12", "--trials", "2", "--m-samples", "1000"],
    ], ids=["sweep", "etch-tiny-m"])
    def test_degenerate_trials_are_counted_not_fatal(self, argv, tmp_path):
        # at the default seed each has trials that cannot divide: a unicast count of
        # exactly N/2 in sweep, an etch chain head whose ratio is exactly 0
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        header, *lines = out.read_text().splitlines()[1:]
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert sum(int(row["n_degenerate"]) for row in rows) > 0
        assert all(math.isfinite(float(row["mse"])) for row in rows)

    @pytest.mark.parametrize("s", ["1e-12", "9.99e-10"])
    def test_etch_s_below_the_degenerate_tolerance_is_a_usage_error(self, s, capsys):
        # a first-round edge divides its ratio by s, so every first-round trial would be degenerate
        with pytest.raises(SystemExit) as exit_info:
            main(["etch", "--s", s])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage: qnt etch " in err
        assert f"qnt etch: error: etch divides by s, so s must be at least 1e-09, got s={float(s)!r}" in err

    def test_etch_s_at_the_degenerate_tolerance_is_accepted(self):
        assert ExperimentConfig("etch", s=protocols.DEGENERATE_DENOMINATOR_TOL).s == 1e-9

    def test_negative_q_list_as_separate_argument(self, capsys):
        outputs = []
        for q_args in (["--q", "-0.2,0.25,0.35"], ["--q=-0.2,0.25,0.35"]):
            argv = ["star", *q_args, "--trials", "2", "--m-samples", "10000",
                    "--n-samples", "10000", "--seed", "3"]
            assert main(argv) == 0
            outputs.append(normalize_runtime(capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        config = json.loads(outputs[0].splitlines()[0].removeprefix("# config "))
        assert config["q_params"] == [-0.2, 0.25, 0.35]

    @pytest.mark.parametrize(
        "argv, trials",
        [
            (["star"], 100),
            (["star", "--full-scale"], 1000),
            (["star", "--full-scale", "--trials", "100"], 100),
        ],
    )
    def test_trials_default_follows_scale_only_when_unset(self, argv, trials):
        assert config_from_args(build_parser().parse_args(argv)).trials == trials

    @pytest.mark.parametrize(
        "argv",
        [
            ["star", "--q", "0.5,0.25"],
            ["sweep", "--q", "0.5,0.25"],
            ["loss", "--q", "0.5,0.25"],
            ["spam-s", "--q", "0.5"],
            ["spam-m", "--q", "0.5"],
            ["star", "--s", "1.5"],
            ["star", "--m", "-0.1"],
            ["sweep", "--spam-grid", "1:1;0.9:1.2"],
            ["star", "--trials", "0"],
            ["star", "--m-samples", "0"],
            ["star", "--n-samples", "100,-5"],
            ["star", "--s", "0"],
            ["spam-m", "--s", "0"],
            ["etch", "--s", "0"],
            ["loss", "--m", "0"],
            ["sweep", "--spam-grid", "1:1;0:1"],
            ["loss", "--horizon", "0"],
            ["loss", "--horizon", "-5"],
            ["loss", "--t-send", "0"],
            ["loss", "--t-send", "7200"],
            ["loss", "--t-cutoff", "-1"],
            ["loss", "--t-cutoff", "nan"],
            ["loss", "--horizon", "inf"],
            *UNKNOWN_OPTIONS,
            ["star", "--q", "2,0.25,0.35"],
            ["star", "--q=-0.5,0.25,0.35"],
            ["star", "--q", "0.5,0,0.35"],
            ["sweep", "--q", "0,0.25,0.35"],
            ["spam-s", "--q", "0.5,0"],
            ["spam-m", "--q", "0.5,0"],
            ["loss", "--q", "0.5,0,0.35"],
            ["loss", "--q", "0.5,0.25,0"],
            ["loss", "--q", "1.5,0.25,0.35"],
            ["star", "--q", "-0.5,0.25,0.35"],
            ["loss", "--t-cutoff", "-1,5"],
            ["star", "--q", "--trials", "2"],
            ["star", "--seed", "-5"],
            ["etch", "--seed", "-1"],
            # numpy draws the counts as int64
            ["star", "--m-samples", "9223372036854775808", "--n-samples", "8000", "--trials", "2"],
            ["star", "--n-samples", "8000,9223372036854775808", "--trials", "2"],
            ["etch", "--m-samples", "9223372036854775808"],
            # 526316 trials x 19 edges of fig1 is past MAX_TRIALS
            ["etch", "--trials", "526316"],
            *map(list, UNREADABLE_LISTS),
        ],
    )
    def test_bad_input_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        # every error shows the usage of the subcommand that was run
        assert f"usage: qnt {argv[0]} " in err
        if argv in UNKNOWN_OPTIONS:
            assert f"qnt {argv[0]}: error: unrecognized arguments: " in err
        else:
            assert f"qnt {argv[0]}: error: " in err

    @pytest.mark.parametrize("argv", list(UNREADABLE_LISTS))
    def test_unreadable_list_names_the_chunk_and_its_form(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(f"qnt {argv[0]}: error: {UNREADABLE_LISTS[argv]}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "No such file or directory"),
            ("node M1 monitor\nnode M1 monitor\n", "line 2: duplicate node id 'M1'"),
            (
                "node H internal\nnode A internal\nnode B internal\n"
                "node M1 monitor\nnode M2 monitor\nnode M3 monitor\n"
                "edge E1 H M1 0.8 0.8 0.8\nedge E2 H M2 0.8 0.8 0.8\nedge E3 H M3 0.8 0.8 0.8\n"
                "edge C1 H A 0.8 0.8 0.8\nedge C2 A B 0.8 0.8 0.8\nedge C3 B H 0.8 0.8 0.8\n",
                "degree-2 cycle attached to node 'H'",
            ),
            (
                "node H internal\nnode M1 monitor\nnode M2 monitor\nnode M3 monitor\n"
                "edge E1 H M1 0.8 0.8 0.8\nedge E2 H M2 0.8 0.8 0.8\nedge E3 H M3 0.8 0.8 0.8\n"
                "edge E4 M1 M2 0.8 0.8 0.8\n",
                "cannot be etched: [monitor-degree] M1",
            ),
            (
                "node H internal\nnode M1 monitor\nnode M2 monitor\nnode M3 monitor\n"
                "edge P1 H M1 0.5 0.5 0.0\nedge P2 H M2 0.8 0.8 0.8\nedge P3 H M3 0.8 0.8 0.8\n",
                "edge 'P1' has q_Z = 0, which etching cannot estimate",
            ),
            (
                # PauliChannel accepts these as rounding slack; a protocol probability would pass 1
                "node H internal\nnode M1 monitor\nnode M2 monitor\nnode M3 monitor\n"
                "edge P1 H M1 0.5 0.5 1.0000000000001\nedge P2 H M2 0.5 0.5 1.0000000000001\n"
                "edge P3 H M3 0.5 0.5 0.5\n",
                "edge 'P1' has a |q| above 1",
            ),
            (
                # the file lists P10 first, but P2 comes first in natural order
                "node H internal\nnode M1 monitor\nnode M2 monitor\nnode M3 monitor\n"
                "edge P10 H M1 0.5 0.5 1.0000000000001\nedge P2 H M2 0.5 0.5 0.0\n"
                "edge P3 H M3 0.8 0.8 0.8\n",
                "edge 'P2' has q_Z = 0, which etching cannot estimate",
            ),
            (
                # the constructor names the first loop it meets, and the file lists E10 before E9
                (DATA_DIR / "self_loops.topo").read_text(),
                ": edge 'E10' starts and ends at node 'H'\n",
            ),
            (
                # contracts to the one monitor-to-monitor edge E1+E2
                "node M1 monitor\nnode A internal\nnode M2 monitor\n"
                "edge E1 M1 A 0.8 0.8 0.8\nedge E2 A M2 0.8 0.8 0.8\n",
                ": merge node 'M1' cannot reach two distinct effective monitors on edge-disjoint paths "
                "avoiding target 'E1+E2'\n",
            ),
            (
                "node M1 monitor\nnode M2 monitor\nedge E1 M1 M2 0.8 0.8 0.8\n",
                ": merge node 'M1' cannot reach two distinct effective monitors on edge-disjoint paths "
                "avoiding target 'E1'\n",
            ),
            (
                # past target E1, merge node H1 reaches one monitor only, M2, through A or B
                "node H1 internal\nnode H2 internal\nnode M1 monitor\nnode M2 monitor\n"
                "edge E1 M1 H1 0.8 0.8 0.8\nedge E2 M2 H2 0.8 0.8 0.8\n"
                "edge A H1 H2 0.8 0.8 0.8\nedge B H1 H2 0.8 0.8 0.8\n",
                ": merge node 'H1' cannot reach two distinct effective monitors on edge-disjoint paths "
                "avoiding target 'E1'\n",
            ),
            (
                b"node H internal\n\xff",
                ": 'utf-8' codec can't decode byte 0xff in position 16: invalid start byte\n",
            ),
        ],
        ids=["missing", "parse", "degree-2-cycle", "not-etchable", "zero-q-z", "q-above-1",
             "first-in-natural-order", "self-loops",
             "contracts-to-one-edge", "one-edge", "two-edge-cut", "not-utf-8"],
    )
    def test_bad_topology_is_a_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "net.topo"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            main(["etch", "--topology", str(path), "--trials", "1", "--m-samples", "1000"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage: qnt etch " in err and "qnt etch: error: " in err and message in err
        assert err.count(str(path)) == 1

    @pytest.mark.parametrize(
        "where, message",
        [("out_dir", "is a directory"), ("out_dir/no/such/dir/x.csv", "is in no existing directory")],
        ids=["directory", "missing-directory"],
    )
    def test_bad_out_is_a_usage_error_before_the_run(self, tmp_path, capsys, monkeypatch, where,
                                                     message):
        (tmp_path / "out_dir").mkdir()
        out = str(tmp_path / where)
        monkeypatch.setitem(EXPERIMENTS, "star",
                            EXPERIMENTS["star"]._replace(driver=lambda cfg: pytest.fail("the grid ran")))
        with pytest.raises(SystemExit) as exit_info:
            main(["star", "--out", out])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"qnt star: error: output path {out!r} {message}" in err
        assert err.count(out) == 1

    @pytest.mark.parametrize("name", ["star", "sweep", "spam-s", "spam-m", "etch", "loss"])
    def test_every_option_names_a_config_field(self, name):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(vars(build_parser().parse_args([name]))) - {"experiment"} <= fields

    def test_every_option_changes_the_rows_or_is_a_usage_error(self, capsys):
        # an option that is parsed and recorded but changes no row misleads

        def rows(argv):
            try:
                main(argv)
            except SystemExit as exit_info:
                assert exit_info.code == 2
                capsys.readouterr()
                return None
            return normalize_runtime(capsys.readouterr().out).splitlines()[1:]

        ignored = []
        for name, command in _parsers()[1].items():
            base = [name, *OPTION_PROBE_BASE[name]]
            base_rows = rows(base)
            assert base_rows
            for action in command._actions:
                for flag in set(action.option_strings) - {"-h", "--help", "--out"}:
                    value = OPTION_PROBE_VALUE[flag]
                    if flag == "--q":  # as many values as the experiment reads
                        value = ",".join(value.split(",")[:len(EXPERIMENTS[name.replace("-", "_")].q_defaults)])
                    changed = rows([*base, flag] + ([] if value is None else [value]))
                    if changed == base_rows:
                        ignored.append(f"{name} {flag}")
        assert ignored == []

    def test_sweep_reads_no_s_or_m(self):
        sweep = _parsers()[1]["sweep"]
        assert not {"--s", "--m"} & set(sweep._option_string_actions)
        assert not re.search(r"--[sm](?![\w-])", sweep.format_help())

    @pytest.mark.parametrize("name, shown, hidden", [("spam-s", "0.5,0.25)", "0.35"), ("spam-m", "0.5,0.25)", "0.35"),
                                                     ("star", "0.5,0.25,0.35)", None)])
    def test_q_help_names_the_experiments_own_defaults(self, name, shown, hidden, capsys):
        with pytest.raises(SystemExit):
            main([name, "--help"])
        text = " ".join(capsys.readouterr().out.split())  # as one line, whatever the terminal width
        assert f"--q Q_PARAMS channel q values (default {shown}" in text
        assert hidden is None or hidden not in text

    def test_spam_grid_help_names_the_sweep_grid(self):
        text = " ".join(_parsers()[1]["sweep"].format_help().split())
        assert SWEEP_GRID == ((1.0, 1.0), (0.95, 0.95), (0.8, 0.8), (0.5, 0.5))
        assert "--spam-grid SPAM_GRID semicolon-separated s:m pairs (default 1:1;0.95:0.95;0.8:0.8;0.5:0.5)" in text

    def test_loss_defaults_without_flags(self):
        cfg = config_from_args(build_parser().parse_args(["loss"]))
        assert cfg.horizon_s == 3600.0
        assert cfg.t_send_s == (0.1, 0.3, 0.5, 0.7, 0.9)
        assert cfg.t_cutoff_s == (0.05, 0.35, 0.75, 5.0, 10.0)

    def test_row_values_land_in_their_named_columns(self):
        values = dict(
            experiment="x", M=1, N=2, s=3.5, m=4.5, truth=5.5, mse=6.5,
            mse_std=7.5, n_degenerate=14, crb=8.5, runtime_ms=9.5, seed=10, target="t", step=11,
            t_send_s=12.5, t_cutoff_s=13.5,
        )
        text = rows_to_csv(small_cfg(), [Row(**values)])
        line = dict(zip(CSV_COLUMNS, text.splitlines()[2].split(",")))
        assert len(values) == len(CSV_COLUMNS)
        for column in CSV_COLUMNS:
            assert line[column] == str(values[column])

    def test_row_cells_keep_their_bytes(self):
        # a numpy float64 is a float: 17 significant digits, like a Python float
        row = Row("etch", np.float64(0.1), 3, math.nan, np.float64(math.nan), math.inf,
                  -math.inf, np.float64(1e-300), 12, None, 1.5, 7, "E9", 2, None, np.float64(0.5))
        negative_nans = row._replace(s=-math.nan, m=np.float64(-math.nan))
        cells, negative_nan_cells = rows_to_csv(small_cfg(), [row, negative_nans]).splitlines()[2:]
        assert cells == "etch,0.10000000000000001,3,nan,nan,inf,-inf,1e-300,12,,1.5,7,E9,2,,0.5"
        assert negative_nan_cells == cells  # a NaN prints nan whatever its sign

    def test_column_runs_print_as_cells_alone(self):
        # equal but distinct objects in a column: each must print as it would alone
        one, nan_a, nan_b = np.float64(1.0), float("nan"), float("nan")
        cells = [
            ("x", 1, 1.0, True, one, 0.0, 0.1, nan_a, 7, None, 1.0, 3, "E1", 1, None, 0.5),
            ("x", 1.0, True, one, 1, -0.0, 0.1, nan_b, 7, 0.5, True, 3, "E2", 1, 0.5, None),
            ("x", True, one, 1, 1.0, 0.0, 0.1, nan_b, 7.0, None, 1, 3, "E3", True, None, 0.5),
            ("x", one, 1, 1.0, True, -0.0, -0.0, nan_a, 7, 0.5, one, 3.0, "E4", 1.0, 0.5, 0.5),
        ]
        rows = [Row(*row) for row in cells]
        alone = [rows_to_csv(small_cfg(), [row]).splitlines()[2] for row in rows]
        assert rows_to_csv(small_cfg(), rows).splitlines()[2:] == alone
        assert alone[0] == "x,1,1,True,1,0,0.10000000000000001,nan,7,,1,3,E1,1,,0.5"
        assert alone[1] == "x,1,True,1,1,-0,0.10000000000000001,nan,7,0.5,True,3,E2,1,0.5,"

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(experiment="star", full_scale=True),
            dict(experiment="sweep", spam_grid=((1.0, 1.0), (0.8, 0.9))),
            dict(experiment="sweep"),
            dict(experiment="etch", topology_path=str(DATA_DIR / "tree60_reversed.topo")),
            dict(experiment="loss", q_params=(0.0, 0.25, 0.35), t_send_s=(0.5,),
                 t_cutoff_s=(math.inf,), horizon_s=60.0),
        ],
        ids=["star-full-scale", "sweep-spam-grid", "sweep-default", "etch", "loss"],
    )
    def test_config_header_is_the_json_of_the_config_fields(self, overrides):
        cfg = ExperimentConfig(**overrides)
        if cfg.experiment == "etch":
            assert "plan" in vars(cfg)  # built and cached by the config check
        header = json.loads(rows_to_csv(cfg, []).splitlines()[0].removeprefix("# config "))
        versions = {"qnt": qnt.__version__, "numpy": np.__version__, "python": platform.python_version()}
        assert header.pop("versions") == versions
        assert header == json.loads(json.dumps(
            {name: value for name, value in dataclasses.asdict(cfg).items() if name in header}))

    def test_options_and_header_follow_reads(self):
        # the options a subcommand offers are the fields its experiment reads, in order,
        # and its header records exactly those, the experiment and the versions
        for name, command in _parsers()[1].items():
            reads = EXPERIMENTS[name.replace("-", "_")].reads
            assert tuple(action.dest for action in command._actions if action.dest != "help") == reads
            header = rows_to_csv(config_from_args(build_parser().parse_args([name])), []).splitlines()[0]
            assert set(json.loads(header.removeprefix("# config "))) == {"experiment", "versions", *reads}

    @pytest.mark.parametrize(
        "overrides, field",
        [
            # sweep runs the pairs of spam_grid, so s and m would change no row
            (dict(experiment="sweep", s=0.5, m=0.5, spam_grid=((1.0, 1.0),)), "s"),
            (dict(experiment="sweep", m=0.5), "m"),
            (dict(experiment="etch", q_params=(0.4, 0.25, 0.35)), "q_params"),  # etch reads the topology
            (dict(experiment="etch", n_samples=(1000,)), "n_samples"),  # etch ties N to M
            (dict(experiment="star", spam_grid=((0.9, 0.9),)), "spam_grid"),
            (dict(experiment="spam-s", horizon_s=60.0), "horizon_s"),
            (dict(experiment="loss", m_samples=(1000,)), "m_samples"),
            (dict(experiment="loss", topology_path="net.topo"), "topology_path"),
        ],
    )
    def test_config_rejects_a_set_field_its_experiment_does_not_read(self, overrides, field):
        with pytest.raises(ValueError, match=f"does not read {field};"):
            ExperimentConfig(**overrides)

    def test_config_accepts_an_unread_field_left_at_its_default(self):
        assert ExperimentConfig("etch", q_params=()).q_params == ()
        assert ExperimentConfig("sweep", s=1.0, m=1.0).spam_grid == SWEEP_GRID
        loss = ExperimentConfig("loss", m_samples=(), n_samples=(), spam_grid=())
        assert (loss.m_samples, loss.n_samples) == ((), ())  # no grid is filled in for loss


class TestRunExperiment:
    def test_star_rows_and_columns(self):
        cfg = small_cfg()
        rows = run_experiment(cfg)
        assert len(rows) == 2  # one M times two N
        text = rows_to_csv(cfg, rows)
        lines = text.splitlines()
        assert lines[0].startswith("# config ")
        assert '"seed": 7' in lines[0]
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + len(rows)

    def test_byte_identical_modulo_runtime(self):
        cfg = small_cfg()
        first = normalize_runtime(rows_to_csv(cfg, run_experiment(cfg)))
        second = normalize_runtime(rows_to_csv(cfg, run_experiment(cfg)))
        assert first == second

    def test_seed_changes_rows(self):
        base = normalize_runtime(rows_to_csv(small_cfg(), run_experiment(small_cfg())))
        other_cfg = small_cfg(seed=8)
        other = normalize_runtime(rows_to_csv(other_cfg, run_experiment(other_cfg)))
        assert base != other

    def test_float_rendering_17_digits(self):
        cfg = small_cfg(trials=5)
        text = rows_to_csv(cfg, run_experiment(cfg))
        mse_cell = text.splitlines()[2].split(",")[6]
        assert re.fullmatch(r"-?\d+(\.\d+)?(e-?\d+)?", mse_cell)
        assert len(mse_cell.replace(".", "").replace("-", "").lstrip("0")) >= 10

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment(small_cfg(experiment="nope"))

    def test_config_checks_and_spells_experiment_once(self):
        with pytest.raises(ValueError, match="unknown experiment 'bogus'"):
            ExperimentConfig(experiment="bogus")
        # a config given the CLI's spelling writes the name the CLI writes
        cfg = small_cfg(experiment="spam-s", trials=2, q_params=(0.5, 0.25), n_samples=(2000,))
        lines = rows_to_csv(cfg, run_experiment(cfg)).splitlines()
        assert json.loads(lines[0].removeprefix("# config "))["experiment"] == "spam_s"
        assert lines[2].startswith("spam_s,")

    def test_spam_s_driver(self):
        cfg = small_cfg(experiment="spam_s", s=0.9, m=0.9, trials=10, q_params=(0.5, 0.25))
        rows = run_experiment(cfg)
        assert all(row.truth == 0.9 for row in rows)
        assert all(row.crb and row.crb > 0 for row in rows)

    def test_spam_m_driver(self):
        cfg = small_cfg(experiment="spam_m", s=0.7, m=0.7, trials=10, q_params=(0.5, 0.25))
        rows = run_experiment(cfg)
        assert all(row.truth == 0.7 for row in rows)

    def test_etch_driver_emits_per_edge_rows(self):
        cfg = small_cfg(experiment="etch", trials=3, m_samples=(2000,))
        rows = run_experiment(cfg)
        assert len(rows) == 19
        steps = {row.target: row.step for row in rows}
        assert steps["P12"] == 1 and steps["P2"] == 2 and steps["P1"] == 3
        assert all(row.truth == 0.8 for row in rows)

    @pytest.mark.parametrize("horizon, trials", [(300.0, 3), (2.0, 20)])
    def test_loss_driver_grid(self, horizon, trials):
        # over 2 s most trials receive nothing: a NaN estimate, counted as degenerate
        cfg = small_cfg(
            experiment="loss",
            trials=trials,
            t_send_s=(0.5,),
            t_cutoff_s=(0.05, 0.35),
            horizon_s=horizon,
        )
        rows = run_experiment(cfg)
        assert len(rows) == 2
        assert rows[0].t_cutoff_s == 0.05 and rows[1].t_cutoff_s == 0.35
        # identical arrival streams with both cutoffs below the send interval
        assert rows[0].M == rows[1].M
        assert rows[0].mse == rows[1].mse
        # each row aggregates a direct loop over the per-trial seeds
        channels = tuple(PauliChannel(q, q, q) for q in cfg.q_params)
        schedule = lossy.Schedule(send_interval_s=0.5, horizon_s=horizon)
        for row in rows:
            memory = lossy.MemoryParams(LOSS_MEMORY_T1_S, LOSS_MEMORY_T2_S, row.t_cutoff_s)
            results = [
                lossy.run_loss_experiment(channels, LOSS_FIBER, memory, schedule, cfg.spam,
                                          seed=_trial_seed(cfg, "loss", trial))
                for trial in range(cfg.trials)
            ]
            assert row.M == sum(r.merged_count for r in results) / cfg.trials
            assert row.N == sum(r.received_count for r in results) / cfg.trials
            estimates = [r.estimate for r in results]
            reference = stats.aggregate_mse([e for e in estimates if not math.isnan(e)], row.truth)
            assert row.truth == 0.5
            assert (row.mse, row.mse_std) == (reference.mse, reference.mse_std)
            assert row.n_degenerate == sum(map(math.isnan, estimates)) == (0 if horizon == 300.0 else 18)

    def test_star_mse_decreases_with_samples(self):
        cfg = small_cfg(trials=150, m_samples=(2000, 10000), n_samples=(2000, 10000))
        rows = {(row.M, row.N): row.mse for row in run_experiment(cfg)}
        # more samples on either side can only help
        assert rows[(10000, 10000)] < rows[(2000, 2000)]
        assert rows[(10000, 10000)] < rows[(2000, 10000)]
        assert rows[(10000, 10000)] < rows[(10000, 2000)]

    def test_sweep_defaults_to_the_sweep_grid(self):
        assert ExperimentConfig("sweep").spam_grid == SWEEP_GRID
        assert ExperimentConfig("star").spam_grid == ()
        assert EXPERIMENTS["sweep"].driver is EXPERIMENTS["star"].driver
        # N = 20000 keeps a degenerate unicast count unlikely even at s = m = 0.5
        cfg = small_cfg(experiment="sweep", trials=5, m_samples=(20000,), n_samples=(20000,))
        rows = run_experiment(cfg)
        assert [(row.s, row.m) for row in rows] == list(SWEEP_GRID)
        assert {row.experiment for row in rows} == {"sweep"}

    def test_star_runs_a_library_spam_grid(self):
        cfg = small_cfg(experiment="sweep", spam_grid=((0.9, 0.9),), m_samples=(8000,), n_samples=(8000,))
        at_s_m = small_cfg(s=0.9, m=0.9, m_samples=(8000,), n_samples=(8000,))
        rows, reference = run_experiment(cfg), run_experiment(at_s_m)
        assert [(row.s, row.m) for row in rows] == [(0.9, 0.9)]
        assert {row.experiment for row in rows} == {"sweep"}
        # both draw from star|0.9|0.9|...: a one-pair sweep is star at that (s, m)
        assert [row._replace(experiment="star", runtime_ms=0) for row in rows] == [
            row._replace(runtime_ms=0) for row in reference]

    @pytest.mark.parametrize(
        "as_int, as_float",
        [(dict(s=1, m=1, **RATIO_GRID), dict(s=1.0, m=1.0, **RATIO_GRID)),
         (dict(experiment="sweep", spam_grid=((1, 1),), **RATIO_GRID),
          dict(experiment="sweep", spam_grid=((1.0, 1.0),), **RATIO_GRID)),
         (RATIO_GRID, dict(m_samples=(1000.0,), n_samples=(1000,))),
         (dict(experiment="etch", m_samples=(1000,)), dict(experiment="etch", m_samples=(1000.0,))),
         (dict(seed=3, **RATIO_GRID), dict(seed=3.0, **RATIO_GRID)),
         (dict(experiment="etch", m_samples=(1000,), trials=5),
          dict(experiment="etch", m_samples=(1000,), trials=5.0)),
         (dict(experiment="loss", q_params=(1, 0.5, 0.5), t_send_s=(1,), t_cutoff_s=(5,), horizon_s=100),
          dict(experiment="loss", q_params=(1.0, 0.5, 0.5), t_send_s=(1.0,), t_cutoff_s=(5.0,),
               horizon_s=100.0))],
        ids=["star", "sweep", "star-samples", "etch-samples", "seed", "etch-trials", "loss"],
    )
    def test_int_and_float_spam_give_one_output(self, as_int, as_float):
        # the stream labels and the config line spell s, m, the q values, the timings, the
        # seed and the sizes, so equal configs must spell them alike
        cfg_int, cfg_float = small_cfg(**{"trials": 50, **as_int}), small_cfg(**{"trials": 50, **as_float})
        assert cfg_int == cfg_float
        csv_int, csv_float = (normalize_runtime(rows_to_csv(cfg, run_experiment(cfg)))
                              for cfg in (cfg_int, cfg_float))
        assert csv_int == csv_float

    @pytest.mark.parametrize(
        "field, value",
        [("m_samples", (1000.5,)), ("n_samples", (1000, math.nan)), ("m_samples", (math.inf,)),
         ("seed", 1.5), ("seed", math.nan), ("trials", 5.5), ("trials", math.inf)],
        ids=["fraction", "nan", "inf", "seed-fraction", "seed-nan", "trials-fraction", "trials-inf"],
    )
    def test_config_rejects_a_sample_size_that_is_not_whole(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be whole, got "):
            small_cfg(**{field: value})

    @pytest.mark.parametrize(
        "field, value, shown",
        [("seed", "5", "'5'"), ("seed", None, "None"), ("trials", "5", "'5'"),
         ("m_samples", ("1000",), "'1000'"), ("n_samples", (1000, None), "None")],
    )
    def test_config_rejects_a_count_that_is_not_a_number(self, field, value, shown):
        with pytest.raises(ValueError, match=f"^{field} must be a number, got {shown}$"):
            small_cfg(**{field: value})

    @pytest.mark.parametrize(
        "overrides, message",
        [(dict(q_params=(0.5, None, 0.3)), "q_params must be a number, got None"),
         (dict(m=None), "m must be a number, got None"),
         (dict(q_params="0.5,0.25,0.35"), "q_params must be a number, got '0'"),
         (dict(experiment="sweep", spam_grid=(0.9, 0.9)), "spam_grid must hold (s, m) pairs, got (0.9, 0.9)"),
         (dict(experiment="sweep", spam_grid=((0.9, 0.9, 0.9),)),
          "spam_grid must hold (s, m) pairs, got ((0.9, 0.9, 0.9),)"),
         (dict(experiment="sweep", spam_grid=((0.9, "0.9"),)), "spam_grid must be a number, got '0.9'"),
         (dict(s="0.5"), "s must be a number, got '0.5'"),
         (dict(experiment="loss", t_send_s=(0.5, "1")), "t_send_s must be a number, got '1'"),
         (dict(experiment="loss", horizon_s="60"), "horizon_s must be a number, got '60'")],
        ids=["q-none", "m-none", "q-string", "spam-grid-flat", "spam-grid-triple", "spam-grid-string",
             "s-string", "t-send-string", "horizon-string"],
    )
    def test_config_rejects_a_real_that_is_not_a_number(self, overrides, message):
        with pytest.raises(ValueError) as err:
            small_cfg(**overrides)
        assert str(err.value) == message

    def test_config_stores_reals_as_floats(self):
        cfg = small_cfg(s=1, m=np.float64(0.5), q_params=(True, 0.25, 0.35))
        assert (cfg.s, cfg.m, cfg.q_params) == (1.0, 0.5, (1.0, 0.25, 0.35))
        assert {type(value) for value in (cfg.s, cfg.m, *cfg.q_params)} == {float}
        sweep = small_cfg(experiment="sweep", spam_grid=[[1, 0.5]])
        assert sweep.spam_grid == ((1.0, 0.5),) and type(sweep.spam_grid[0][0]) is float

    def test_sweep_driver_varies_spam(self):
        cfg = small_cfg(
            experiment="sweep",
            trials=5,
            m_samples=(2000,),
            n_samples=(2000,),
            spam_grid=((1.0, 1.0), (0.8, 0.8)),
        )
        rows = run_experiment(cfg)
        assert {(row.s, row.m) for row in rows} == {(1.0, 1.0), (0.8, 0.8)}


class TestMain:
    def test_writes_csv_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "star",
                "--trials",
                "4",
                "--seed",
                "2",
                "--m-samples",
                "500",
                "--n-samples",
                "500",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_etch_with_topology_file(self, tmp_path):
        topo_file = tmp_path / "net.topo"
        topo_file.write_text(
            "node C internal\nnode A1 monitor\nnode A2 monitor\nnode B monitor\n"
            "edge P1 C A1 0.8 0.8 0.8\nedge P2 C A2 0.8 0.8 0.8\nedge P3 C B 0.8 0.8 0.8\n"
        )
        out = tmp_path / "etch.csv"
        code = main(
            [
                "etch",
                "--topology",
                str(topo_file),
                "--trials",
                "2",
                "--m-samples",
                "1000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        body = out.read_text().splitlines()
        assert len(body) == 2 + 3  # three edges

    def test_etch_names_with_a_non_decimal_digit(self, tmp_path):
        # '²' is a digit to str.isdigit() but not a decimal digit, so it stays text in a name key
        topo_file = tmp_path / "net.topo"
        topo_file.write_text(
            "node H1\u00b2 internal\nnode A1 monitor\nnode A2 monitor\nnode B monitor\n"
            "edge P1 H1\u00b2 A1 0.8 0.8 0.8\nedge P2 H1\u00b2 A2 0.8 0.8 0.8\n"
            "edge P3 H1\u00b2 B 0.8 0.8 0.8\n",
            encoding="utf-8",
        )
        out = tmp_path / "etch.csv"
        argv = ["etch", "--topology", str(topo_file), "--trials", "2", "--m-samples", "1000",
                "--out", str(out)]
        assert main(argv) == 0
        assert len(out.read_text().splitlines()) == 2 + 3

    @pytest.mark.parametrize("command", ["spam-s", "spam-m"])
    def test_deterministic_unicast_runs_with_a_blank_crb(self, command, tmp_path):
        # at q = (1, 1) and s = m = 1 every estimate is exact and the bound is 0/0
        out = tmp_path / "rows.csv"
        argv = [command, "--q", "1,1", "--trials", "3", "--m-samples", "1000", "--n-samples", "1000,2000",
                "--out", str(out)]
        assert main(argv) == 0
        header, *rows = (line.split(",") for line in out.read_text().splitlines()[1:])
        cells = [dict(zip(header, row)) for row in rows]
        assert len(cells) == 2
        assert all(cell["crb"] == "" and float(cell["mse"]) == 0.0 for cell in cells)

    def test_config_error_names_the_experiment_as_typed(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["spam-m", "--q", "0.5"])
        assert exit_info.value.code == 2
        assert "qnt spam-m: error: spam-m needs 2 q values, got 1" in capsys.readouterr().err


STAR_SPAM = SpamModel(0.9, 0.95)
CH1, CH2, CH3 = (PauliChannel(q, q, q) for q in (0.5, 0.25, 0.35))
PATH = [CH1, CH2]  # the spam-s/spam-m path at q_params (0.5, 0.25)
# experiment, config overrides, stream label, numerator protocol name,
# numerator and unicast probabilities, estimator, divisor and truth.
RATIO_CASES = [
    (
        "star",
        dict(s=0.9, m=0.95),
        "star|0.9|0.95",
        "merge",
        protocols.mergecast_prob(CH1, [CH2], [CH3], STAR_SPAM),
        protocols.unicast_prob([CH2, CH3], STAR_SPAM),
        protocols.estimate_q_mergecast,
        0.9,
        0.5,
    ),
    (
        "spam_s",
        dict(s=0.9, m=0.8, q_params=(0.5, 0.25)),
        "spam-s",
        "root",
        protocols.spam_s_protocol_prob(PATH, SpamModel(0.9, 0.8)),
        protocols.unicast_prob(PATH, SpamModel(0.9, 0.8)),
        protocols.estimate_s,
        1.0,
        0.9,
    ),
    (
        "spam_m",
        dict(s=0.8, m=0.9, q_params=(0.5, 0.25)),
        "spam-m",
        "pair",
        protocols.spam_m_protocol_probs(PATH, PATH, SpamModel(0.8, 0.9))[4],
        protocols.unicast_prob(PATH, SpamModel(0.8, 0.9)),
        protocols.estimate_m,
        1.0,
        0.9,
    ),
]


class TestRatioCell:
    @pytest.mark.parametrize(
        "experiment, overrides, stream, numerator, p_num, p_uni, estimator, divisor, truth",
        RATIO_CASES,
        ids=[case[0] for case in RATIO_CASES],
    )
    def test_batched_cell_equals_scalar_loop(
        self, experiment, overrides, stream, numerator, p_num, p_uni, estimator, divisor, truth
    ):
        cfg = small_cfg(experiment=experiment, trials=25, **overrides)
        rows = run_experiment(cfg)
        assert len(rows) == 2
        for row in rows:
            cell = f"{stream}|{row.M}|{row.N}|"
            num_rng = stats.substream(cfg.seed, cell + numerator, 0)
            uni_rng = stats.substream(cfg.seed, cell + "uni", 0)
            estimates = [
                estimator(
                    protocols.sample_protocol(p_num, row.M, num_rng),
                    protocols.sample_protocol(p_uni, row.N, uni_rng),
                )
                / divisor
                for _ in range(cfg.trials)
            ]
            reference = stats.aggregate_mse(estimates, truth)
            assert row.truth == truth
            assert row.mse == reference.mse
            assert row.mse_std == reference.mse_std

    @pytest.mark.parametrize(
        "experiment, overrides, stream, numerator, p_num, p_uni, estimator, divisor, truth",
        RATIO_CASES,
        ids=[case[0] for case in RATIO_CASES],
    )
    def test_tiny_n_cell_counts_its_degenerate_trials(
        self, experiment, overrides, stream, numerator, p_num, p_uni, estimator, divisor, truth
    ):
        # at N = 2 a unicast count of N/2 = 1 makes 2p - 1 = 0 in about half the trials
        cfg = small_cfg(experiment=experiment, m_samples=(2,), n_samples=(2,), **overrides)
        (row,) = run_experiment(cfg)
        num = stats.substream(cfg.seed, f"{stream}|2|2|{numerator}", 0).binomial(2, p_num, size=cfg.trials)
        uni = stats.substream(cfg.seed, f"{stream}|2|2|uni", 0).binomial(2, p_uni, size=cfg.trials)
        kept = uni != 1
        assert 0 < row.n_degenerate == cfg.trials - kept.sum() < cfg.trials
        reference = stats.aggregate_mse(
            [estimator(x / 2, y / 2) / divisor for x, y in zip(num[kept].tolist(), uni[kept].tolist())], truth)
        assert (row.mse, row.mse_std) == (reference.mse, reference.mse_std)


# One small config per experiment: etch on fig1 at one M, loss over 300 s, and
# etch on a 61-edge tree whose file lists its edges out of natural order.
GOLDEN_ARGV = {
    "star": ["star", "--s", "0.9", "--m", "0.95", "--trials", "20",
             "--m-samples", "1000,3000", "--n-samples", "2000"],
    "sweep": ["sweep", "--spam-grid", "1:1;0.8:0.9", "--trials", "10",
              "--m-samples", "2000", "--n-samples", "2000"],
    "spam-s": ["spam-s", "--s", "0.9", "--m", "0.8", "--q", "0.5,0.25", "--trials", "20",
               "--m-samples", "2000", "--n-samples", "2000,4000"],
    "spam-m": ["spam-m", "--s", "0.8", "--m", "0.9", "--q", "0.5,0.25", "--trials", "20",
               "--m-samples", "2000", "--n-samples", "2000,4000"],
    "etch": ["etch", "--s", "0.95", "--m", "0.9", "--trials", "20", "--m-samples", "10000"],
    "etch-tree": ["etch", "--topology", "tree60_reversed.topo", "--s", "0.95", "--m", "0.9",
                  "--trials", "20", "--m-samples", "10000"],
    "loss": ["loss", "--s", "0.95", "--trials", "3", "--horizon", "300",
             "--t-send", "0.1,0.5", "--t-cutoff", "0.05,5"],
}


class TestGoldenCsv:
    """Each experiment's CLI CSV, ``runtime_ms`` blanked, equals a committed file.

    The files pin every number of every driver, so a refactor that must keep
    the output proves it here.  A change that alters the random-stream layout
    (or anything else that moves a CSV number on purpose) regenerates them with
    ``QNT_REGEN_GOLDEN=1 python -m pytest tests/test_cli.py -k golden`` and
    records that in CHANGES.md.  They run in ``tests/data``, so a topology path
    in the ``# config`` line is relative.
    """

    @pytest.mark.parametrize("name", list(GOLDEN_ARGV))
    def test_csv_matches_golden_file(self, name, capsys, monkeypatch):
        monkeypatch.chdir(DATA_DIR)
        assert main([*GOLDEN_ARGV[name], "--seed", "7"]) == 0
        text = normalize_runtime(capsys.readouterr().out) + "\n"
        path = DATA_DIR / f"golden_{name}.csv"
        if os.environ.get("QNT_REGEN_GOLDEN"):
            path.write_text(text)
        assert text == path.read_text()
