"""The stack sampler of scripts/sample_profile.py."""

import importlib.util
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

SCRIPT = (Path(__file__).resolve().parent.parent / "scripts"
          / "sample_profile.py")


@pytest.fixture(scope="module")
def sample_profile():
    spec = importlib.util.spec_from_file_location("sample_profile", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FRAMES = []


@dataclass(frozen=True)
class Point:
    x: int

    def __post_init__(self):
        FRAMES.append(sys._getframe(1))  # the generated __init__


def build_point():
    return Point(1)


def test_a_dataclass_init_is_charged_to_its_caller(sample_profile):
    FRAMES.clear()
    build_point()
    init = FRAMES.pop()
    assert init.f_code.co_filename == "<string>"
    sampler = sample_profile.Sampler(0.001)
    sampler.running = True
    sampler._sample(signal.SIGPROF, init)
    caller = sample_profile._label(build_point.__code__)
    assert sampler.self_counts == {caller: 1}
    assert caller in sampler.inclusive_counts
    assert sampler.generated == 1
    sampler.running = False  # outside an op nothing is counted
    sampler._sample(signal.SIGPROF, init)
    assert sampler.samples == 1


def test_a_few_growth_ops_are_sampled_and_reported(sample_profile):
    sampler = sample_profile.profile(8)
    assert sampler.cpu_s > 0 and sampler.samples > 0
    assert sum(sampler.self_counts.values()) == sampler.samples
    # every sample is taken inside an op
    op = sample_profile._label(sample_profile.Sampler.run.__code__)
    assert sampler.inclusive_counts[op] == sampler.samples
    assert not any("<string>" in key for key in sampler.inclusive_counts)
    report = sampler.report(5).splitlines()
    assert len(report) == 2 + min(5, len(sampler.self_counts)) + 1
    assert report[-1].startswith("dataclass __init__ (charged to callers):")
