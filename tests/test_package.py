"""The package's public names, and the README's examples."""

import re
import shlex
from pathlib import Path

import kitefusion
from kitefusion import attitude, cli, estimator, evalio, frames, lineangle, pipelines, simkite
from kitefusion.pipelines import EstimationPipeline, EstimatorConfig


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_every_export_resolves():
    for name in kitefusion.__all__:
        assert getattr(kitefusion, name) is not None, name
    assert len(set(kitefusion.__all__)) == len(kitefusion.__all__)


def test_removed_names_are_gone():
    """One per-axis gain path, no public function that nothing in the
    package calls, an encoder reading that is a plain pair, no number
    parser in ``pipelines``: ``errors`` holds the one real-number rule, and
    no priming but ``pipelines._run``'s."""
    gone = {estimator: ("steady_state_gain", "KfTuning", "KalmanGain"), simkite: ("truth_at",),
            attitude: ("quat_to_rot",), frames: ("velocity_angle",), evalio: ("rmse",),
            lineangle: ("EncoderReading",),
            pipelines: ("_TEXT", "_real", "_float", "_floats", "_PAST_END"),
            EstimationPipeline: ("prime",)}
    for module, names in gone.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in kitefusion.__all__ and not hasattr(kitefusion, name)
    assert not hasattr(pipelines, "lo_frequency_response")
    assert kitefusion.lo_frequency_response is estimator.lo_frequency_response
    assert not hasattr(EstimationPipeline(EstimatorConfig()), "gain")


def test_readme_quick_start_runs(capsys):
    """The README's python example runs as written and prints its report."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README, flags=re.DOTALL | re.MULTILINE)
    assert blocks
    exec(compile("".join(blocks), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed and all(re.match(r"t=\d+\.\d\d  \|p error\|=", line) for line in printed)


def test_readme_command_line_runs(tmp_path, monkeypatch):
    """The README's command-line example runs as written: its ``run.cfg``,
    then each of its ``kitefusion`` lines, in process, exits 0 and writes
    its output file."""
    (example,) = re.findall(r"^cat > run\.cfg <<'EOF'\n(.*?^EOF\n.*?)^```$", README,
                            flags=re.DOTALL | re.MULTILINE)
    config, commands = example.split("EOF\n", 1)
    argvs = [shlex.split(line)[1:] for line in commands.splitlines() if line]
    assert [argv[0] for argv in argvs] == ["simulate", "estimate", "evaluate", "bode"]
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(config)
    for argv in argvs:
        assert cli.main(argv) == 0, argv
        out = Path(argv[argv.index("--out") + 1])
        assert out.stat().st_size > 0, argv
