import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from braidphase import berry, cli, dynamics, linalg


def closed(theta):
    return np.pi * (1 - np.cos(theta))


class TestAnalytic:
    def test_equator_plus(self):
        assert abs(berry.berry_analytic(5, np.pi / 2, 10 ** 4) - np.pi) <= 1e-6

    def test_equator_minus(self):
        assert abs(berry.berry_analytic(6, np.pi / 2, 10 ** 4) + np.pi) <= 1e-6

    def test_pole_is_flat(self):
        for i in (5, 6, 7, 8):
            assert abs(berry.berry_analytic(i, 0.0, 2000)) <= 1e-8

    def test_half_solid_angle_curve(self):
        for theta in (0.4, 1.1, 2.5):
            got = berry.berry_analytic(7, theta, 4000)
            assert abs(got - closed(theta)) <= 1e-5

    def test_signs_by_state(self):
        theta = 1.2
        for i, sign in ((5, 1), (6, -1), (7, 1), (8, -1)):
            got = berry.berry_analytic(i, theta, 4000)
            assert abs(got - sign * closed(theta)) <= 1e-5

    def test_second_order_convergence(self):
        for theta in (0.8, 1.2, 2.0):
            exact = closed(theta)
            for n in (1000, 2000):
                e_n = abs(berry.berry_analytic(5, theta, n) - exact)
                e_2n = abs(berry.berry_analytic(5, theta, 2 * n) - exact)
                assert e_2n <= 0.25 * e_n + 1e-12

    def test_gauge_invariance(self):
        # re-deriving the line integral with a random per-point gauge must
        # reproduce berry_analytic to roundoff
        theta, steps, i = 1.1, 500, 5
        rng = np.random.default_rng(7)
        phis = np.linspace(0, 2 * np.pi, steps + 1)[:-1]
        batch = dynamics.fixture_batch(i, theta, np.exp(-1j * phis))
        gauged = batch * np.exp(1j * rng.uniform(0, 2 * np.pi, steps))[:, None]
        rolled = np.vstack([gauged[1:], gauged[:1]])
        overlaps = np.einsum("ij,ij->i", gauged.conj(), rolled)
        gamma = -np.sum(np.angle(overlaps))
        # the gauge contributions cancel around the closed loop, but each
        # step's angle may wrap; compare on the circle
        assert berry.phase_residual(gamma, berry.berry_analytic(i, theta, steps)) <= 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            berry.berry_analytic(4, 0.4, 1000)
        with pytest.raises(ValueError):
            berry.berry_analytic(5, 0.4, 99)
        # theta is checked before any sine or cosine of it is taken
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="finite"):
                    berry.berry_analytic(5, theta, 200)


class TestAnalyticOneRead:
    """berry_analytic reads one batch once, over the basis indices the fixture
    occupies; the dense eight-column route of oracles is the reference."""

    # a grid over [-7, 7] with its ends, the poles, the equator and a tiny angle
    THETAS = np.concatenate([np.linspace(-7.0, 7.0, 58), [0.0, np.pi / 2, np.pi, 1e-300]])

    @pytest.mark.parametrize("steps", [100, 101, 2000, 10 ** 4, 12345])
    @pytest.mark.parametrize("i", [5, 6, 7, 8])
    def test_bitwise_equal_to_dense_route(self, i, steps):
        for theta in self.THETAS:
            got = berry.berry_analytic(i, theta, steps)
            assert got == oracles.dense_line_integral(i, theta, steps), theta

    @staticmethod
    def leak(monkeypatch, entries):
        # replaces the first basis column that the fixture leaves empty, which
        # lies outside its parity sector, by entries(column, z), z = e^{-i phi}
        # the phase factors of the loop
        exact = dynamics.fixture_batch

        def leaky(i, theta, z):
            batch = exact(i, theta, z)
            outside = np.flatnonzero(~np.any(batch, axis=0))[0]
            batch[:, outside] = entries(batch[:, outside], z)
            return batch

        monkeypatch.setattr(dynamics, "fixture_batch", leaky)

    @pytest.mark.parametrize("i", [5, 6, 7, 8])
    def test_tiny_leak_outside_the_sector_is_read(self, monkeypatch, i):
        def one_entry(column, z):
            column[137] = 1e-300
            return column

        self.leak(monkeypatch, one_entry)
        assert berry.berry_analytic(i, 1.1, 400) == oracles.dense_line_integral(i, 1.1, 400)

    @pytest.mark.parametrize("i", [5, 6, 7, 8])
    def test_column_outside_the_sector_is_read(self, monkeypatch, i):
        # a leak that moves the phase: a route that assumed the sector would
        # still return the clean phase
        clean = berry.berry_analytic(i, 1.1, 400)
        self.leak(monkeypatch, lambda column, z: 0.1 * z.conj() ** 2)  # 0.1 e^{2i phi}
        got = berry.berry_analytic(i, 1.1, 400)
        assert got == oracles.dense_line_integral(i, 1.1, 400)
        assert abs(got - clean) > 1e-3

    def test_memory_is_bounded_per_step(self):
        steps = 10 ** 5
        berry._loop.cache_clear()  # so that the grid the cache keeps is counted
        tracemalloc.start()
        berry.berry_analytic(5, 1.1, steps)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 216 * steps  # 208 B per step measured, numpy 2.4.6


class TestLevelTableSwap:
    """The members of the minus and plus levels swapped in the level table:
    each fixture still carries the phase of its own formula, so the line
    integral still equals the dense route's."""

    @pytest.mark.parametrize("i", [5, 6, 7, 8])
    def test_phase_follows_the_fixture(self, monkeypatch, i):
        (minus, fives), (plus, sixes) = dynamics.LEVELS["minus"], dynamics.LEVELS["plus"]
        monkeypatch.setitem(dynamics.LEVELS, "minus", (minus, sixes))
        monkeypatch.setitem(dynamics.LEVELS, "plus", (plus, fives))
        assert berry.berry_analytic(i, 1.1, 400) == oracles.dense_line_integral(i, 1.1, 400)


class TestLoopCache:
    """The analytic loop's phase factors are built once per step count, and a
    phase does not depend on whether they were."""

    @pytest.mark.parametrize("i", [5, 6, 7, 8])
    def test_cold_and_warm_phases_bitwise_equal(self, i):
        berry._loop.cache_clear()
        phases, misses = {}, []
        for steps in (2000, 10 ** 4, 2000, 10 ** 4):
            got = berry.berry_analytic(i, 0.9, steps)
            misses.append(berry._loop.cache_info().misses)
            assert got == oracles.dense_line_integral(i, 0.9, steps), steps
            assert got == phases.setdefault(steps, got), steps
        assert misses == [1, 2, 2, 2]  # cold, cold, then warm twice

    def test_all_doublet_fixtures_share_one_loop(self):
        # each fixture takes the phase it carries from the one loop
        berry._loop.cache_clear()
        for i in (5, 6, 7, 8):
            berry.berry_analytic(i, 1.1, 400)
        assert berry._loop.cache_info()[:2] == (3, 1)  # hits, misses

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_cached_arrays_are_read_only(self, sign):
        # a fixture carrying e^{sign i phi}: 5 reads the loop's z, 6 its conjugate;
        # neither can write the cached loop, and reading it leaves it as built
        berry._loop.cache_clear()
        berry.berry_analytic(5 if sign == -1 else 6, 1.1, 400)
        z = berry._loop(400)
        assert berry._loop.cache_info()[:2] == (1, 1)  # hits, misses
        with pytest.raises(ValueError, match="read-only"):
            z[0] = 1.0
        phis = np.linspace(0, 2 * np.pi, 401)[:-1]
        assert np.array_equal(z, np.exp(-1j * phis))

    def test_cache_holds_at_most_maxsize_grids(self):
        for steps in range(100, 130):
            berry.berry_analytic(5, 1.1, steps)
            info = berry._loop.cache_info()
            assert info.currsize <= info.maxsize
        assert info.maxsize == info.currsize == 2


class TestWilson:
    def test_doublet_eigenphases_at_pi_third(self):
        phases = berry.berry_wilson(np.pi / 3, 400)["minus"]
        assert len(phases) == 2
        for p in phases:
            assert berry.phase_residual(p, np.pi / 2) <= 1e-4

    def test_plus_doublet_opposite_sign(self):
        phases = berry.berry_wilson(np.pi / 3, 400)["plus"]
        for p in phases:
            assert berry.phase_residual(p, -np.pi / 2) <= 1e-4

    def test_levels_carry_opposite_phases(self):
        phases = berry.berry_wilson(1.2, 400)
        assert list(phases) == ["minus", "plus"]
        for pm, pp in zip(phases["minus"], phases["plus"]):
            assert abs(pm + pp) <= 1e-6

    def test_vanishing_solid_angle(self):
        for phases in berry.berry_wilson(1e-3, 400).values():
            for p in phases:
                assert abs(p) <= 1e-4

    def test_agrees_with_analytic_route(self):
        theta = 1.2
        wilson = berry.berry_wilson(theta, 600)["minus"]
        analytic = berry.berry_analytic(5, theta, 600)
        for p in wilson:
            assert berry.phase_residual(p, analytic) <= 1e-5

    def test_crossing_rejected(self):
        with pytest.raises(linalg.NumericalError):
            berry.berry_wilson(np.pi / 2, 400)

    def test_validation(self):
        with pytest.raises(ValueError):
            berry.berry_wilson(0.9, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="finite"):
                    berry.berry_wilson(theta, 800)


def unsplit_wilson_loop(level, theta, steps):
    """The Wilson loop over frames from the whole 8x8 H at each grid point."""
    grid = np.stack([
        dynamics.hamiltonian(dynamics.DriveParams(theta, 2 * np.pi * k / steps))
        for k in range(steps)])
    # numpy.linalg is a test oracle only
    values, vectors = np.linalg.eigh(grid)
    target = -np.cos(theta) if level == "minus" else np.cos(theta)
    frames = [vecs[:, np.abs(vals - target) < abs(np.cos(theta)) / 2]
              for vals, vecs in zip(values, vectors)]
    loop = np.eye(2, dtype=complex)
    for k in range(steps):
        loop = loop @ (frames[k].conj().T @ frames[(k + 1) % steps])
    return loop


def eigvals_phases(loop):
    # numpy.linalg is a test oracle only
    return sorted(float(-np.angle(z)) for z in np.linalg.eigvals(loop))


class TestWilsonDoubletPrecision:
    # the README argv: theta = 1.0472, level minus, 800 steps
    THETA, STEPS = 1.0472, 800

    def test_doublet_phases_agree(self):
        low, high = berry.berry_wilson(self.THETA, self.STEPS)["minus"]
        assert high - low <= 1e-12

    def test_matches_numpy_eigvals_of_the_loop(self):
        phases = berry.berry_wilson(self.THETA, self.STEPS)["minus"]
        oracle = eigvals_phases(unsplit_wilson_loop("minus", self.THETA, self.STEPS))
        for p, q in zip(phases, oracle):
            assert abs(p - q) <= 1e-13


# the doublet range of each parity sector, one orthonormal column per state:
# even |000> and (|011> + |101> + |110>)/sqrt(3), odd (|001> - |010> +
# |100>)/sqrt(3) and |111>
SECTOR_BASES = np.zeros((2, 8, 2))
SECTOR_BASES[0, 0, 0] = SECTOR_BASES[1, 7, 1] = 1.0
SECTOR_BASES[0, [3, 5, 6], 1] = 1 / np.sqrt(3)
SECTOR_BASES[1, [1, 2, 4], 0] = np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
ODD = [1, 2, 4, 7]


def captured_solve(monkeypatch):
    """Runs linalg.eigh as is and records each (input, output) in the list
    it returns."""
    calls = []
    original = linalg.eigh

    def recording(a):
        dec = original(a)
        calls.append((a, dec))
        return dec

    monkeypatch.setattr(linalg, "eigh", recording)
    return calls


OPERATORS = ("I_PLUS", "I_MINUS", "I_3")


def nudge(monkeypatch, name, move):
    """Replaces dynamics.<name> by a copy that move(op) has edited in place."""
    op = getattr(dynamics, name).copy()
    move(op)
    monkeypatch.setattr(dynamics, name, op)


def mixing_move(op):
    op[0b011, 0b111] = op[0b111, 0b011] = 1e-300


class OperatorRejections:
    """The exact-structure rejections of dynamics._doublet_blocks, through one
    of its callers: ``solve()`` runs it, and ``ARGV`` runs it through the CLI,
    after one of the operators that H is built from has been nudged."""

    def test_mixing_entry_rejected(self, monkeypatch):
        for name in OPERATORS:
            with monkeypatch.context() as m:
                nudge(m, name, mixing_move)
                with pytest.raises(linalg.NumericalError,
                                   match=f"^{name} mixes even and odd parity;"):
                    self.solve()

    @pytest.mark.parametrize("copy,other", [(5, 3), (6, 5), (2, 1), (4, 2)])
    def test_tiny_entry_off_the_doublet_range_rejected(self, monkeypatch, copy, other):
        # an entry of a column that must copy column 3 or 1 given an imaginary
        # part far below any tolerance
        def move(op):
            op[other, copy] += 1e-300j

        for name in OPERATORS:
            with monkeypatch.context() as m:
                nudge(m, name, move)
                with pytest.raises(linalg.NumericalError,
                                   match=f"^{name} (column|row) .* H leaves the doublet range$"):
                    self.solve()

    @pytest.mark.parametrize("copy,other", [(5, 0), (4, 7)])
    def test_row_off_the_doublet_range_rejected(self, monkeypatch, copy, other):
        # one entry of a row that must copy row 3 or 1, moved by one unit in
        # the last place (of 0 or of 1): every column still copies its source
        def move(op):
            op[copy, other] += np.spacing(abs(op[copy, other].real))

        source = {5: 3, 4: 1}[copy]
        for name in OPERATORS:
            with monkeypatch.context() as m:
                nudge(m, name, move)
                with pytest.raises(linalg.NumericalError,
                                   match=f"^{name} row {copy} is not \\+1 times row {source};"):
                    self.solve()

    def test_cli_exits_3(self, monkeypatch, capsys):
        for name in OPERATORS:
            with monkeypatch.context() as m:
                nudge(m, name, mixing_move)
                code = cli.main(self.ARGV)
            out = capsys.readouterr()
            assert code == 3 and out.out == ""
            assert len(out.err.splitlines()) == 1
            assert f"{name} mixes even and odd parity;" in out.err


class TestParitySplit(OperatorRejections):
    # angles off the README one: the plus doublet at theta = 2.1 (cos < 0)
    # and both doublets ("--level all") at theta = 0.9
    CASES = [("plus", 2.1), ("minus", 0.9), ("plus", 0.9)]
    ARGV = ["berry", "--theta", "1.0472", "--steps", "400", "--method", "wilson"]

    @staticmethod
    def solve():
        berry.berry_wilson(1.0472, 400)

    def test_sector_without_one_level_state_rejected(self, monkeypatch):
        # shifting the odd diagonal of I_3 also moves H off the doublet range,
        # which is checked before any level is
        def move(op):
            op[ODD, ODD] += 1.0

        nudge(monkeypatch, "I_3", move)
        with pytest.raises(linalg.NumericalError, match="^I_3 column 2 is not -1 times "
                           "column 1; H leaves the doublet range$"):
            berry.berry_wilson(1.0472, 400)

    def test_block_without_one_level_state_rejected(self, monkeypatch):
        # an eigenvalue of the odd block at grid point 137 moved off its level
        original = linalg.eigh

        def moved(a):
            dec = original(a)
            dec.eigenvalues[2 * 137 + 1, 0] += 1.0
            return dec

        monkeypatch.setattr(linalg, "eigh", moved)
        with pytest.raises(linalg.NumericalError,
                           match=r"expected one state at energy .* at grid point 137$"):
            berry.berry_wilson(1.0472, 400)

    def test_block_with_two_level_states_rejected(self, monkeypatch):
        # both eigenvalues of the even block at grid point 61 on the minus
        # level: counted as 2, where a logical OR of the two would read 1
        original = linalg.eigh

        def doubled(a):
            dec = original(a)
            dec.eigenvalues[2 * 61, 1] = dec.eigenvalues[2 * 61, 0]
            return dec

        monkeypatch.setattr(linalg, "eigh", doubled)
        with pytest.raises(linalg.NumericalError,
                           match=r"expected one state at energy .* found 2 at grid point 61$"):
            berry.berry_wilson(1.0472, 400)

    def test_one_two_by_two_solve(self, monkeypatch):
        calls = captured_solve(monkeypatch)
        berry.berry_wilson(0.9, 150)
        assert [a.shape for a, _ in calls] == [(300, 2, 2)]

    @pytest.mark.parametrize("theta", [0.3, 1.0472, 1.56, np.pi - 1.56, 2.1, 2.9])
    def test_lifted_states_are_eigenvectors_of_the_full_h(self, monkeypatch, theta):
        # each selected 2-vector, lifted by its sector's basis, against the
        # 8 x 8 H of its grid point
        steps = 100
        calls = captured_solve(monkeypatch)
        berry.berry_wilson(theta, steps)
        ((_, dec),) = calls
        gap = abs(np.cos(theta))
        for k in range(steps):
            h = dynamics.hamiltonian(dynamics.DriveParams(theta, 2 * np.pi * k / steps))
            lifted = []
            for sector in range(2):
                values = dec.eigenvalues[2 * k + sector]
                for sign in (-1, 1):
                    (j,) = np.flatnonzero(np.abs(values - sign * np.cos(theta)) < gap / 2)
                    w = SECTOR_BASES[sector] @ dec.eigenvectors[2 * k + sector][:, j]
                    assert np.linalg.norm(h @ w - values[j] * w) <= 1e-13
                    lifted.append(w)
            lifted = np.array(lifted).T
            assert np.abs(lifted.conj().T @ lifted - np.eye(4)).max() <= 1e-13

    def test_memory_is_bounded_per_step(self):
        for steps in (10 ** 4, 10 ** 5):
            tracemalloc.start()
            berry.berry_wilson(1.1, steps)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak <= 1000 * steps, steps

    @pytest.mark.parametrize("level,theta", CASES)
    def test_matches_numpy_eigvals_of_the_unsplit_loop(self, level, theta):
        phases = berry.berry_wilson(theta, 800)[level]
        oracle = eigvals_phases(unsplit_wilson_loop(level, theta, 800))
        for p, q in zip(phases, oracle):
            assert abs(p - q) <= 1e-13

    @pytest.mark.parametrize("level,theta", CASES)
    def test_doublet_phases_agree(self, level, theta):
        low, high = berry.berry_wilson(theta, 800)[level]
        assert high - low <= 1e-12


class TestSpectrumParitySplit(OperatorRejections):
    # the drive of grid point 137 of TestParitySplit's loop
    PHI = 2 * np.pi * 137 / 400
    ARGV = ["spectrum", "--theta", "1.0472", "--phi", repr(PHI)]

    def solve(self):
        dynamics.spectrum(dynamics.DriveParams(1.0472, self.PHI))


class TestFold:
    def test_principal_range_unchanged(self):
        for phase in (0.0, -0.0, 1.2345678901234567, -6.283185307179586 + 1e-15,
                      2 * np.pi, -3.0, np.nextafter(-2 * np.pi, 0.0)):
            folded = berry.fold(phase)
            assert folded == phase and np.signbit(folded) == np.signbit(phase)

    def test_whole_turns_removed(self):
        assert berry.fold(2 * np.pi + 0.25) == pytest.approx(0.25, abs=1e-15)
        assert berry.fold(-3 * np.pi) == pytest.approx(-np.pi, abs=1e-15)
        assert berry.fold(4 * np.pi) == 2 * np.pi
        assert berry.fold(-2 * np.pi) == 0.0

    def test_many_turns(self):
        for phase in (1e5, -1e5, 12345.678):
            folded = berry.fold(phase)
            assert -2 * np.pi < folded <= 2 * np.pi
            assert berry.phase_residual(folded, phase % (2 * np.pi)) <= 1e-9


class TestZeroLevel:
    def test_identically_zero(self):
        for theta in (0.0, 0.9, 2.8):
            assert berry.zero_level_phase(theta) == 0.0

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, theta):
        # as on every other level and method, not a report gated on NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="theta must be finite"):
                berry.zero_level_phase(theta)
            with pytest.raises(ValueError, match="theta must be finite"):
                cli.cmd_berry(theta, None, "analytic", "zero", None)


class TestReports:
    # the per-level reports are composed by cli.cmd_berry
    def test_closed_forms(self):
        th = 0.8
        assert berry.closed_form_phase("zero", th) == 0.0
        assert berry.closed_form_phase("minus", th) == pytest.approx(closed(th))
        assert berry.closed_form_phase("plus", th) == pytest.approx(-closed(th))
        assert berry.solid_angle(th) == pytest.approx(2 * closed(th))
        with pytest.raises(ValueError):
            berry.closed_form_phase("middle", th)

    def test_analytic_report(self):
        (rep,) = cli.cmd_berry(0.9, 2000, "analytic", "minus", None).results["reports"]
        assert rep["level"] == "minus" and rep["method"] == "analytic"
        assert len(rep["phases"]) == 2
        assert max(rep["residuals"]) <= 1e-5
        assert all(-2 * np.pi < p <= 2 * np.pi for p in rep["phases"])

    def test_wilson_report(self):
        (rep,) = cli.cmd_berry(0.9, 300, "wilson", "plus", None).results["reports"]
        assert len(rep["phases"]) == 2
        assert max(rep["residuals"]) <= 1e-4

    def test_zero_report(self):
        (rep,) = cli.cmd_berry(1.4, 1000, "analytic", "zero", None).results["reports"]
        assert rep["phases"] == [0.0, 0.0, 0.0, 0.0]
        assert rep["closed_form"] == 0.0

    def test_wilson_zero_level_rejected(self):
        with pytest.raises(ValueError, match="split doublets"):
            cli.cmd_berry(1.4, 1000, "wilson", "zero", None)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            cli.cmd_berry(1.4, 1000, "quadrature", "minus", None)
