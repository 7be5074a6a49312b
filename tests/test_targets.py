import math

import numpy as np
import pytest

from impsprep import statevec, targets
from impsprep.targets import (
    KINDS,
    STATES,
    TargetSpec,
    discretize,
    make_spec,
    mps_rank,
    verify_ring_bounds,
)

from conftest import write_amplitudes


def brute_force_rank_profile(amps, n, tol):
    """Independent Schmidt-rank oracle: reshape by explicit index loops and
    count singular values with a fresh SVD per cut."""
    dims = []
    for cut in range(n - 1):
        left = 1 << (cut + 1)
        right = 1 << (n - 1 - cut)
        mat = np.zeros((left, right), dtype=complex)
        for k in range(1 << n):
            mat[k >> (n - 1 - cut), k & (right - 1)] = amps[k]
        sv = np.linalg.svd(mat, compute_uv=False)
        dims.append(int(np.sum(sv > tol * sv[0])))
    return dims


class TestDiscretize:
    def test_ghz(self):
        s = discretize(make_spec("ghz", 3))
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / math.sqrt(2)
        assert np.allclose(s.amps, expected)

    def test_w(self):
        s = discretize(make_spec("w", 3))
        expected = np.zeros(8)
        expected[[1, 2, 4]] = 1 / math.sqrt(3)
        assert np.allclose(s.amps, expected)

    def test_linear_two_qubits(self):
        s = discretize(TargetSpec("linear", 2, params=(1.0, 0.0)))
        expected = np.array([0.0, 1 / 3, 2 / 3, 1.0])
        assert np.allclose(s.amps, expected / np.linalg.norm(expected))

    def test_f1_formula(self):
        spec = make_spec("f1", 10)
        s = discretize(spec)
        assert s.n == 10 and abs(np.linalg.norm(s.amps) - 1.0) < 1e-12
        x = np.linspace(0.0, 1.0, 1024)
        vals = x * (np.exp(0.68 * x) + np.exp(-2.0 * x) - 0.7) * np.sin(24.0 * x)
        assert np.allclose(s.amps, vals / np.linalg.norm(vals))

    def test_grid_includes_both_endpoints(self):
        spec = make_spec("g1", 4)
        x = targets.grid_points(spec)
        assert x[0] == -5.0 and x[-1] == 5.0 and len(x) == 16

    def test_deterministic(self):
        a = discretize(make_spec("f3", 8))
        b = discretize(make_spec("f3", 8))
        assert np.array_equal(a.amps, b.amps)

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            discretize(TargetSpec("linear", 3, params=(0.0, 0.0)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            discretize(make_spec("g2", 3, domain=(-1.0, 1.0)))  # log of x <= 0

    def test_rawfile(self, tmp_path, rng):
        state = statevec.from_amplitudes(rng.normal(size=8))
        path = tmp_path / "t.amps"
        write_amplitudes(state, path)
        ((label, loaded, domain),) = targets.resolve(str(path), 3, 0)
        assert np.abs(loaded.amps - state.amps).max() < 1e-15
        assert label == f"rawfile:{path}" and domain is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_spec("nope", 4)


class TestResolve:
    @pytest.mark.parametrize("name", [*targets.KINDS, *targets.STATES, "random", "Random", " random", " F1 "])
    def test_every_listed_name_resolves(self, name):
        ((label, state, domain),) = targets.resolve(name, 4, 12345)
        assert state.n == 4 and abs(np.linalg.norm(state.amps) - 1.0) < 1e-12
        # every random draw is labelled random; only a function kind has a domain
        assert (label == "random") == (name.strip().lower() == "random")
        assert (domain is None) == (name.strip().lower() not in targets.KINDS)

    def test_unknown_name_lists_what_target_accepts(self):
        with pytest.raises(ValueError) as info:
            targets.resolve("rawfile", 4, 0)
        assert str(info.value) == f"unknown target 'rawfile'; known: {targets.TARGET_VALUES}"
        assert "rawfile" not in targets.TARGET_VALUES
        for name in [*targets.KINDS, *targets.STATES, "random", ".amps"]:
            assert name in targets.TARGET_VALUES

    def test_file_with_another_qubit_count_is_named(self, tmp_path, rng):
        path = tmp_path / "t.amps"
        write_amplitudes(statevec.random_state(3, rng), path)
        with pytest.raises(ValueError, match=f"{path} holds 3 qubits, --n was 4"):
            targets.resolve(str(path), 4, 0)


class TestMpsRank:
    def test_product_state_chi_one(self, rng):
        amps = np.array([1.0])
        for _ in range(5):
            q = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps = np.kron(amps, q / np.linalg.norm(q))
        prof = mps_rank(statevec.from_amplitudes(amps))
        assert prof.chi == 1

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_ghz_chi_two(self, n):
        assert mps_rank(targets.ghz_state(n)).chi == 2

    def test_w_state_chi_at_most_two(self):
        for n in (3, 5, 8):
            assert mps_rank(targets.w_state(n)).chi <= 2

    def test_exponential_chi_one(self):
        for n in (4, 8, 12):
            s = discretize(TargetSpec("exp", n, params=(1.0, 2.3)))
            assert mps_rank(s).chi == 1

    @pytest.mark.parametrize("n", list(range(2, 15)))
    def test_cosine_and_linear_chi_at_most_two(self, n):
        for kind, params in (("cos", (0.7, 9.1, 0.0)), ("linear", (2.0, 0.4))):
            s = discretize(TargetSpec(kind, n, params=params))
            assert mps_rank(s).chi <= 2

    def test_agrees_with_brute_force_oracle(self, rng):
        for n in range(2, 9):
            for state in (
                targets.ghz_state(n),
                discretize(make_spec("f1", n)),
                statevec.from_amplitudes(rng.normal(size=1 << n)),
            ):
                prof = mps_rank(state, tol=1e-10)
                assert list(prof.bond_dims) == brute_force_rank_profile(state.amps, n, 1e-10)

    def test_bond_dim_bounds(self):
        prof = mps_rank(discretize(make_spec("f2", 8)))
        for i, d in enumerate(prof.bond_dims):
            assert 1 <= d <= min(2 ** (i + 1), 2 ** (8 - 1 - i))


class TestRingBounds:
    def test_cos_plus_linear(self):
        f = make_spec("cos", 10, domain=(0.0, 1.0))
        g = make_spec("linear", 10, domain=(0.0, 1.0))
        rep = verify_ring_bounds(f, g)
        assert rep.additive_ok and rep.multiplicative_ok
        assert rep.chi_sum <= 4

    def test_exponential_multiplication_keeps_rank(self):
        f = make_spec("exp", 10, domain=(0.0, 1.0))
        for other in ("cos", "linear", "f1", "f2"):
            g = make_spec(other, 10, domain=(0.0, 1.0))
            rep = verify_ring_bounds(f, g)
            assert rep.chi_f == 1
            assert rep.chi_prod <= rep.chi_g
            assert rep.multiplicative_ok

    def test_self_difference_handled(self):
        f = make_spec("cos", 8, domain=(0.0, 1.0))
        rep = verify_ring_bounds(f, f)
        assert rep.chi_diff is None  # identically zero difference excluded
        assert rep.chi_sum <= 2 * rep.chi_f

    def test_mismatched_specs_rejected(self):
        with pytest.raises(ValueError):
            verify_ring_bounds(make_spec("cos", 8), make_spec("linear", 9))

    @pytest.mark.parametrize("kf", ["exp", "cos", "linear", "f1", "f2"])
    @pytest.mark.parametrize("kg", ["exp", "cos", "linear", "f1", "f2"])
    def test_all_pairs_at_n10(self, kf, kg):
        f = make_spec(kf, 10, domain=(0.0, 1.0))
        g = make_spec(kg, 10, domain=(0.0, 1.0))
        rep = verify_ring_bounds(f, g, tol=1e-10)
        assert rep.additive_ok and rep.multiplicative_ok


class TestCatalog:
    def test_contains_the_benchmarks_and_special_states(self):
        assert {"f1", "f2", "f3", "g1", "g2", "g3", "ghz", "w"} <= {*KINDS, *STATES}

    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_every_entry_discretizes(self, n):
        for kind in [*KINDS, *STATES]:
            state = discretize(make_spec(kind, n))
            assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12

    def test_default_domains_recorded(self):
        domains = {kind: make_spec(kind, 8).domain for kind in KINDS}
        assert domains["f1"] == (0.0, 1.0)
        assert domains["g1"] == (-5.0, 5.0)
        assert domains["g2"][0] > 0.0
