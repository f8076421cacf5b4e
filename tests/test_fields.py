import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gainslab.core import (
    EPSILON_0,
    MU_0,
    Z_0,
    GainMedium,
    Polarization,
    u_parameter,
)
from gainslab.fields import (
    SingularFieldContext,
    _envelopes,
    energy_density,
    energy_density_from_fields,
    poynting,
    poynting_angle_deg,
    poynting_from_fields,
    singular_fields,
    tilde_theta_deg,
)

L = 400e-6

complex_u = st.builds(
    complex,
    st.floats(1.2, 6.0),
    st.floats(-1e-2, -1e-6),
)
depths = st.floats(0.0, 1.0)


@pytest.fixture(scope="module")
def contexts(ss20_te, ss20_tm, ss80_te, ss80_tm):
    return {
        "te20": SingularFieldContext(ss20_te),
        "tm20": SingularFieldContext(ss20_tm),
        "te80": SingularFieldContext(ss80_te),
        "tm80": SingularFieldContext(ss80_tm),
    }


class TestUPm:
    def test_endpoints(self):
        u = 3.6 - 1e-4j
        plus, minus = _envelopes(u, np.array([0.0, 1.0]))
        assert plus == pytest.approx([u, u], rel=1e-14)
        assert minus == pytest.approx([-1.0, 1.0], rel=1e-14)

    def test_midpoint(self):
        u = 3.6 - 1e-4j
        plus, minus = _envelopes(u, 0.5)
        # geometric mean of u-1 and u+1 at s = 1/2, and exact odd zero
        assert plus == pytest.approx(np.sqrt(np.complex128(u * u - 1.0)),
                                     rel=1e-14)
        assert abs(minus) < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(complex_u, depths)
    def test_parity(self, u, s):
        plus, minus = _envelopes(u, s)
        plus_mirror, minus_mirror = _envelopes(u, 1.0 - s)
        assert plus_mirror == pytest.approx(plus, rel=1e-12, abs=1e-12)
        assert minus_mirror == pytest.approx(-minus, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(complex_u, depths)
    # real u < 1 with a negative-zero imaginary part: Arg(u-1) = -pi, where
    # Log((u+1)/(u-1)) would be 2 pi i away from Log(u+1) - Log(u-1)
    @example(complex(0.5, -0.0), 0.3)
    def test_sum_is_power_product(self, u, s):
        # sum/difference recover the two defining power products
        first = (u - 1.0) ** (1.0 - s) * (u + 1.0) ** s
        second = (u - 1.0) ** s * (u + 1.0) ** (1.0 - s)
        plus, minus = _envelopes(u, s)
        assert plus + minus == pytest.approx(first, rel=1e-12)
        assert plus - minus == pytest.approx(second, rel=1e-12)


def _envelopes_mp(u, s):
    """U_+, U_- from the four principal powers, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        u, s = mpmath.mpc(u), mpmath.mpf(s)
        first = (u - 1) ** (1 - s) * (u + 1) ** s
        second = (u - 1) ** s * (u + 1) ** (1 - s)
        return complex((first + second) / 2), complex((first - second) / 2)


class TestEnvelopeOracle:
    @settings(max_examples=300, deadline=None)
    @given(eta=st.floats(1.2, 5.0), log_kappa=st.floats(-7.0, -2.0),
           theta=st.floats(0.0, 89.9), pol=st.sampled_from(list(Polarization)),
           s=depths)
    # TM below Brewster: Re u < 1 puts u - 1 next to the branch cut
    @example(eta=3.4, log_kappa=-4.0, theta=20.0, pol=Polarization.TM, s=0.3)
    def test_matches_principal_powers(self, eta, log_kappa, theta, pol, s):
        u = u_parameter(GainMedium(eta, -10.0 ** log_kappa), theta, pol)
        plus, minus = _envelopes(u, s)
        ref_plus, ref_minus = _envelopes_mp(u, s)
        scale = max(abs(ref_plus), abs(ref_minus))
        assert abs(plus - ref_plus) <= 1e-14 * scale
        assert abs(minus - ref_minus) <= 1e-14 * scale


class TestSingularFields:
    def test_te_component_pattern(self, contexts):
        E, H = singular_fields(contexts["te20"], 0.2e-6,
                               np.linspace(-L, 2 * L, 31))
        assert np.all(E[..., 0] == 0) and np.all(E[..., 2] == 0)
        assert np.all(H[..., 1] == 0)
        assert np.all(np.abs(E[..., 1]) > 0)

    def test_tm_component_pattern(self, contexts):
        E, H = singular_fields(contexts["tm20"], 0.0, 0.3 * L)
        assert E[1] == 0 and H[0] == 0 and H[2] == 0
        assert abs(H[1]) > 0 and abs(E[0]) > 0

    def test_left_field_is_pure_outgoing(self, contexts):
        # on the left the wave moves toward -z: amplitude constant in z,
        # phase advancing as exp(-i k_z z)
        ctx = contexts["te80"]
        z = np.array([-1e-6, -2e-6, -5e-6])
        E, _ = singular_fields(ctx, 0.0, z)
        mags = np.abs(E[:, 1])
        assert mags == pytest.approx(abs(ctx.b0), rel=1e-12)
        phases = E[:, 1] * np.exp(1j * ctx.point.wave.k_z * z)
        assert phases == pytest.approx(phases[0], rel=1e-12)

    def test_outgoing_plane_waves_outside(self, contexts):
        # outside the slab the wave is b0 e^{i(k_x x -+ k_z z)} moving along
        # k_hat = (sin, 0, -+cos), with H = k_hat x E / Z_0
        x = 0.7e-6
        for ctx in contexts.values():
            wave = ctx.point.wave
            th = np.radians(ctx.point.theta_deg)
            for z, sign in ((np.array([-0.5 * L, -3e-6]), -1.0),
                            (np.array([L + 3e-6, 1.5 * L]), 1.0)):
                E, H = singular_fields(ctx, x, z)
                shift = 0.0 if sign < 0 else L
                expected = ctx.b0 * np.exp(
                    1j * (wave.k_x * x + sign * wave.k_z * (z - shift)))
                k_hat = np.array([np.sin(th), 0.0, sign * np.cos(th)])
                if ctx.point.polarization is Polarization.TE:
                    main, field, predicted = (E[:, 1], H,
                                              np.cross(k_hat, E) / Z_0)
                else:
                    main, field, predicted = (H[:, 1], E,
                                              -Z_0 * np.cross(k_hat, H))
                assert main == pytest.approx(expected, rel=1e-12)
                assert np.max(np.abs(predicted - field)) < 1e-12 * np.max(
                    np.abs(field))

    def test_tangential_continuity_at_faces(self, contexts):
        # x and y components across each face, one ulp apart
        for ctx in contexts.values():
            for lo, hi in ((np.nextafter(0.0, -1.0), 0.0),
                           (L, np.nextafter(L, 2 * L))):
                E, H = singular_fields(ctx, 0.0, np.array([lo, hi]))
                for f in (E, H):
                    tangential = f[:, :2]
                    jump = np.max(np.abs(tangential[0] - tangential[1]))
                    assert jump <= 1e-12 * np.max(np.abs(tangential))

    def test_flux_leaves_both_faces(self, contexts):
        for ctx in contexts.values():
            S_left = poynting_from_fields(ctx, 0.0,
                                          np.linspace(-0.5 * L, -1e-9, 51))
            S_right = poynting_from_fields(ctx, 0.0,
                                           np.linspace(L + 1e-9, 1.5 * L, 51))
            assert np.all(S_left[:, 2] < 0)
            assert np.all(S_right[:, 2] > 0)

    def test_subsets_match_whole_grid(self, contexts):
        # interior and exterior points evaluated apart give the same fields
        # as one N-d grid crossing both faces, with x broadcast against z
        z = np.linspace(-0.3 * L, 1.3 * L, 15).reshape(3, 5)
        x = np.array([[0.0], [0.4e-6], [1.1e-6]])
        xz = np.broadcast_to(x, z.shape)
        inside = (z >= 0) & (z <= L)
        for ctx in contexts.values():
            E, H = singular_fields(ctx, x, z)
            assert E.shape == H.shape == (3, 5, 3)
            for part in (inside, ~inside):
                E_part, H_part = singular_fields(ctx, xz[part], z[part])
                for whole, sub in ((E, E_part), (H, H_part)):
                    assert np.max(np.abs(whole[part] - sub)) <= 1e-15 * np.max(
                        np.abs(whole))

    def test_amplitude_scales_linearly(self, ss20_tm):
        one = SingularFieldContext(ss20_tm, b0=1.0)
        two = SingularFieldContext(ss20_tm, b0=2.0j)
        E1, H1 = singular_fields(one, 0.0, 0.4 * L)
        E2, H2 = singular_fields(two, 0.0, 0.4 * L)
        assert E2 == pytest.approx(2.0j * E1)
        assert H2 == pytest.approx(2.0j * H1)


# z of shape (N,) and (3, 5) crossing both faces, and a 0-d interior point
GRIDS = {
    "1d": np.linspace(-0.3 * L, 1.3 * L, 7),
    "2d": np.linspace(-0.3 * L, 1.3 * L, 15).reshape(3, 5),
    "0d": np.array(0.4 * L),
}


class TestFieldConsumers:
    """poynting_from_fields and energy_density_from_fields against numpy
    oracles on the E and H that singular_fields returns, whatever the
    memory layout behind their (..., 3) shape."""

    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("name", ["te20", "tm20"])
    def test_poynting_is_half_real_cross_product(self, contexts, name, grid):
        ctx, z = contexts[name], GRIDS[grid]
        E, H = singular_fields(ctx, 0.0, z)
        assert E.shape == H.shape == z.shape + (3,)
        S = poynting_from_fields(ctx, 0.0, z)
        oracle = 0.5 * np.real(np.cross(E, H.conj()))
        assert S.shape == oracle.shape == z.shape + (3,)
        scale = np.max(np.abs(E)) * np.max(np.abs(H))
        assert np.max(np.abs(S - oracle)) <= 1e-14 * scale

    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("name", ["te20", "tm20"])
    def test_energy_is_explicit_sum(self, contexts, name, grid):
        ctx, z = contexts[name], GRIDS[grid]
        E, H = singular_fields(ctx, 0.0, z)
        zeta = np.where((z >= 0) & (z <= L), ctx.point.medium.n ** 2, 1.0)
        oracle = 0.25 * (EPSILON_0 * zeta.real * np.sum(np.abs(E) ** 2, -1)
                         + MU_0 * np.sum(np.abs(H) ** 2, -1))
        u = energy_density_from_fields(ctx, 0.0, z)
        assert np.shape(u) == z.shape
        assert np.max(np.abs(u - oracle)) <= 1e-14 * np.max(oracle)


class TestPoynting:
    def test_outside_directions(self, contexts):
        for name, ctx in contexts.items():
            theta = ctx.point.theta_deg
            assert poynting_angle_deg(ctx, -1e-6) == pytest.approx(
                180.0 - theta, abs=1e-10)
            assert poynting_angle_deg(ctx, L + 1e-6) == pytest.approx(
                theta, abs=1e-10)

    def test_outside_magnitude(self, contexts):
        for ctx in contexts.values():
            S = poynting(ctx, np.array([-1e-6]))[0]
            assert np.linalg.norm(S) == pytest.approx(ctx.poynting_out,
                                                      rel=1e-12)

    def test_midplane_flow_is_along_interface(self, contexts):
        for ctx in contexts.values():
            S = poynting(ctx, np.array([L / 2]))[0]
            assert abs(S[2]) < 1e-12 * ctx.poynting_out
            assert S[0] > 0
            assert poynting_angle_deg(ctx, L / 2) == pytest.approx(90.0)

    def test_normal_incidence_midplane_stagnates(self):
        from gainslab import solve_singularity
        p = solve_singularity(3.4, 0.0, L, Polarization.TE,
                              target_wavelength=1500e-9)
        S = poynting(SingularFieldContext(p), np.array([L / 2]))[0]
        assert np.linalg.norm(S) < 1e-12 * abs(p.k)

    def test_matches_cross_product_everywhere(self, contexts):
        z = np.linspace(-0.5 * L, 1.5 * L, 201)
        for ctx in contexts.values():
            closed = poynting(ctx, z)
            direct = poynting_from_fields(ctx, 0.0, z)
            assert np.max(np.abs(closed - direct)) < 1e-12 * np.max(
                np.abs(closed))

    def test_mirror_symmetry(self, contexts):
        # z -> L - z keeps S_x and u and reverses S_z
        z = np.linspace(0.0, L, 64)
        for ctx in contexts.values():
            S = poynting(ctx, z) / ctx.poynting_out
            S_mirror = poynting(ctx, L - z) / ctx.poynting_out
            u = energy_density(ctx, z) / ctx.energy_out
            u_mirror = energy_density(ctx, L - z) / ctx.energy_out
            assert np.max(np.abs(S[:, 0] - S_mirror[:, 0])) < 1e-12
            assert np.max(np.abs(S[:, 2] + S_mirror[:, 2])) < 1e-12
            assert np.max(np.abs(u - u_mirror)) < 1e-12

    def test_interior_bends_toward_interface(self, contexts):
        # refraction into a dense medium: the interior flow angle at the
        # exit face is much closer to the normal scaled by the TM formula
        ctx = contexts["tm20"]
        assert tilde_theta_deg(ctx) == pytest.approx(1.8034, abs=5e-4)
        assert tilde_theta_deg(ctx) < ctx.point.theta_deg


class TestEnergyDensity:
    def test_outside_value(self, contexts):
        for ctx in contexts.values():
            assert energy_density(ctx, -1e-6) == pytest.approx(
                ctx.energy_out, rel=1e-12)
            assert energy_density(ctx, L + 1e-6) == pytest.approx(
                ctx.energy_out, rel=1e-12)

    def test_matches_field_assembly(self, contexts):
        z = np.linspace(0.0, L, 101)
        for ctx in contexts.values():
            closed = energy_density(ctx, z)
            direct = energy_density_from_fields(ctx, 0.0, z)
            assert np.max(np.abs(closed - direct)) < 1e-12 * np.max(closed)

    def test_interior_minimum_at_midplane(self, contexts):
        z = np.linspace(0.0, L, 201)
        for ctx in contexts.values():
            u = energy_density(ctx, z)
            assert np.argmin(u) == 100

    def test_steep_tm_interior_below_exterior(self, contexts):
        z = np.linspace(0.0, L, 201)
        ratio = energy_density(contexts["tm80"], z) / contexts[
            "tm80"].energy_out
        assert np.all(ratio < 1.0)

    def test_other_modes_exceed_exterior_somewhere(self, contexts):
        z = np.linspace(0.0, L, 201)
        for name in ("te20", "tm20", "te80"):
            ratio = energy_density(contexts[name], z) / contexts[
                name].energy_out
            assert np.max(ratio) > 1.0
