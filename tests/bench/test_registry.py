"""Unit tests for the benchmark registry."""

import pytest

from repro.bench import (
    UnknownBenchmarkError,
    profile_design,
    benchmark_names,
    get_profile,
    load_benchmark,
    load_suite,
)


class TestLookup:
    def test_names_follow_paper_order(self):
        names = benchmark_names()
        assert names[0] == "DES3"
        assert names[-2:] == ["N_2046", "N_1023"]
        assert len(names) == 14

    def test_get_profile(self):
        assert get_profile("MD5").name == "MD5"

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownBenchmarkError):
            get_profile("AES_XL")
        with pytest.raises(UnknownBenchmarkError):
            load_benchmark("AES_XL")


class TestLoading:
    def test_full_scale_synthetic_sizes(self):
        # Loading the synthetic designs at full size is cheap enough to test.
        n2046 = load_benchmark("N_2046")
        assert n2046.operation_census() == {"+": 2046}
        n1023 = load_benchmark("N_1023")
        assert n1023.operation_census() == {"+": 1023, "-": 1023}

    def test_scaled_synthetic(self):
        design = load_benchmark("N_2046", scale=0.01)
        assert design.operation_census()["+"] == 20

    def test_profile_benchmark_scaled(self):
        design = load_benchmark("SHA256", scale=0.1, seed=1)
        census = design.operation_census()
        assert census == get_profile("SHA256").scaled(0.1).operations

    def test_full_scale_profile_benchmark(self):
        design = load_benchmark("SASC", seed=0)
        assert design.operation_census() == get_profile("SASC").operations

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            load_benchmark("MD5", scale=0.0)

    def test_load_suite_subset(self):
        suite = load_suite(["FIR", "IIR"], scale=0.2, seed=0)
        assert set(suite) == {"FIR", "IIR"}
        assert all(design.num_operations() > 0 for design in suite.values())

    def test_load_suite_default_is_full_evaluation_set(self):
        suite = load_suite(scale=0.05, seed=0)
        assert set(suite) == set(benchmark_names())


class TestDeterministicDefault:
    """Generation without an explicit seed gives the same design every call."""

    def test_load_benchmark(self):
        first = load_benchmark("MD5", scale=0.2)
        assert first.fingerprint() == load_benchmark("MD5", scale=0.2).fingerprint()
        assert first.fingerprint() == load_benchmark("MD5", scale=0.2,
                                                     seed=0).fingerprint()

    def test_load_suite(self):
        first = load_suite(["FIR", "SHA256"], scale=0.2)
        second = load_suite(["FIR", "SHA256"], scale=0.2)
        assert {name: design.fingerprint() for name, design in first.items()} \
            == {name: design.fingerprint() for name, design in second.items()}

    def test_profile_design(self):
        profile = get_profile("IIR").scaled(0.2)
        assert profile_design(profile).fingerprint() \
            == profile_design(profile).fingerprint()
