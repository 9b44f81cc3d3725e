"""The package's public names, and the README's example."""

import re
from pathlib import Path

import kitefusion
from kitefusion import attitude, estimator, evalio, frames, lineangle, pipelines, simkite
from kitefusion.pipelines import EstimationPipeline, EstimatorConfig


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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    assert blocks
    exec(compile("".join(blocks), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed and all(re.match(r"t=\d+\.\d\d  \|p error\|=", line) for line in printed)
