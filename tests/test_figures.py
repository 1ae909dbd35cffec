"""The figure table: every command runs, and reads only its own flags."""

import pytest

from repro.cli import COMMANDS, main
from repro.experiments.figures import FIGURES, run_figure

#: Small values for the flags a figure may read, so each command runs in
#: well under a second at n=40.
SMALL = {"keys": "3", "lookups": "12", "walks": "2", "trials": "40",
         "ops": "2000", "quorum_nodes": "5"}
#: quorum audits its simulated load against the optimizer's prediction
#: (an AuditError under REPRO_AUDIT=strict), so it runs with enough
#: samples: the sizes of CI's strict-audit quorum smoke.
SAMPLES = {"quorum": {"reps": "4", "lookups": "40"}}


def _is_separator(line):
    return "-+-" in line and set(line.strip()) <= {"-", "+"}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_every_figure_prints_its_table(name, capsys):
    argv = [name, "--n", "40"]
    values = {**SMALL, **SAMPLES.get(name, {})}
    for flag in FIGURES[name].flags:
        if flag in values:
            argv += ["--" + flag.replace("_", "-"), values[flag]]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(FIGURES[name].title)
    assert any(" | " in header and _is_separator(separator)
               for header, separator in zip(lines, lines[1:]))


@pytest.mark.parametrize("argv", [
    ["fig15", "--reps", "3"],
    ["fig16", "--ci", "0.1"],
    ["fig8", "--mobility", "waypoint"],
    ["fig13", "--mobility", "waypoint"],
    ["fig3", "--keys", "3"],
])
def test_flags_a_figure_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_fig12_honours_mobility(capsys):
    outputs = []
    for mobility in ("static", "waypoint"):
        assert main(["fig12", "--n", "100", "--keys", "3", "--lookups", "12",
                     "--mobility", mobility]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]


def test_unknown_toggle_is_rejected():
    with pytest.raises(TypeError, match="salvation"):
        run_figure("fig10", 40, (1.0,), salvation=False)
