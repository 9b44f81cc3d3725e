"""The package's public names."""

import kitefusion
from kitefusion import attitude, estimator, evalio, frames, lineangle, pipelines, simkite
from kitefusion.pipelines import EstimationPipeline, EstimatorConfig


def test_every_export_resolves():
    for name in kitefusion.__all__:
        assert getattr(kitefusion, name) is not None, name
    assert len(set(kitefusion.__all__)) == len(kitefusion.__all__)


def test_removed_names_are_gone():
    """One per-axis gain path, no public function that nothing in the
    package calls, and an encoder reading that is a plain pair."""
    gone = {estimator: ("steady_state_gain", "KfTuning", "KalmanGain"), simkite: ("truth_at",),
            attitude: ("quat_to_rot",), frames: ("velocity_angle",), evalio: ("rmse",),
            lineangle: ("EncoderReading",)}
    for module, names in gone.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in kitefusion.__all__ and not hasattr(kitefusion, name)
    assert not hasattr(pipelines, "lo_frequency_response")
    assert kitefusion.lo_frequency_response is estimator.lo_frequency_response
    assert not hasattr(EstimationPipeline(EstimatorConfig()), "gain")
