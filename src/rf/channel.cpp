#include "rf/channel.hpp"

#include <cmath>

#include "common/error.hpp"
#include "rf/propagation.hpp"

namespace wimi::rf {
namespace {

/// Field attenuation applied to the through-ray when the wall is metal:
/// the paper notes the signal is "essentially reflected back".
constexpr double kMetalTransmission = 1e-3;

/// Link distance at which the environment's Rician K factor is defined.
constexpr double kReferenceLinkDistance = 2.0;

}  // namespace

ChannelModel::ChannelModel(const ChannelConfig& config) : config_(config) {
    ensure(config_.deployment.rx_antenna_count >= 1,
           "ChannelModel: need at least one receiver antenna");

    Rng rng(config_.seed);
    const auto& env = config_.environment;

    // Total multipath power relative to LoS power (Rician K factor).
    const double multipath_power = std::pow(10.0, -env.rician_k_db / 10.0);

    // Draw reflections with exponentially distributed excess delays and an
    // exponential power–delay profile, then normalize total power.
    std::vector<double> weights;
    reflectors_.reserve(env.reflector_count);
    weights.reserve(env.reflector_count);
    double weight_sum = 0.0;
    for (std::size_t m = 0; m < env.reflector_count; ++m) {
        Reflector r;
        r.excess_delay_s = rng.exponential(env.delay_spread_s);
        r.phase_offset = rng.uniform(0.0, kTwoPi);
        r.aoa_rad = rng.uniform(0.0, kTwoPi);
        const double weight = std::exp(-r.excess_delay_s / env.delay_spread_s);
        weights.push_back(weight);
        weight_sum += weight;
        reflectors_.push_back(r);
    }
    for (std::size_t m = 0; m < reflectors_.size(); ++m) {
        const double power_m =
            multipath_power * weights[m] / std::max(weight_sum, 1e-12);
        reflectors_[m].amplitude = std::sqrt(power_m);
    }
}

ChannelMatrix ChannelModel::sample(std::span<const double> frequencies_hz,
                                   const TargetScene* scene,
                                   Rng& packet_rng) const {
    ensure(!frequencies_hz.empty(),
           "ChannelModel::sample: need at least one subcarrier");
    const auto& dep = config_.deployment;
    const auto& env = config_.environment;
    const std::size_t n_ant = dep.rx_antenna_count;
    const std::size_t n_sc = frequencies_hz.size();

    // Per-packet multipath fluctuation: each reflection jitters in
    // amplitude and phase (slow environmental dynamics). Drawn once per
    // packet per reflector, shared by all antennas/subcarriers so the
    // fluctuation is physically consistent across the array.
    std::vector<double> amp_jitter(reflectors_.size());
    std::vector<double> phase_jitter(reflectors_.size());
    for (std::size_t m = 0; m < reflectors_.size(); ++m) {
        amp_jitter[m] =
            std::max(0.0, 1.0 + packet_rng.gaussian(0.0, env.dynamic_jitter));
        phase_jitter[m] =
            packet_rng.gaussian(0.0, env.dynamic_jitter * kTwoPi);
    }

    // Geometry of the target (if any) for the through-ray of each antenna.
    TargetPathLengths paths;
    double diffraction_strength = 0.0;
    double mean_interior_m = 0.0;
    if (scene != nullptr) {
        paths = target_path_lengths(dep, scene->beaker);
        for (const double d : paths.interior_m) {
            mean_interior_m += d;
        }
        mean_interior_m /= static_cast<double>(paths.interior_m.size());
        const double lambda =
            free_space_wavelength(frequencies_hz[n_sc / 2]);
        const double inner_diameter = 2.0 * scene->beaker.inner_radius();
        // Creeping-wave/diffraction component grows once the beaker is
        // smaller than about one wavelength (paper Sec. V-B, Fig. 19).
        diffraction_strength =
            std::max(0.0, (lambda - inner_diameter) / lambda);
    }
    // The diffraction component has a packet-random phase: it is the
    // incoherent sum of many creeping paths, which is what corrupts the
    // stable through-ray phase for sub-wavelength targets.
    const double diffraction_phase = packet_rng.uniform(0.0, kTwoPi);

    ChannelMatrix h(n_ant, std::vector<Complex>(n_sc));
    for (std::size_t a = 0; a < n_ant; ++a) {
        const double los_dist = dep.los_distance(a);
        const double los_delay = los_dist / kSpeedOfLight;
        const double los_amp = 1.0 / los_dist;  // free-space spreading
        const Vec2 antenna_offset = dep.rx_antenna(a) - dep.rx_reference;

        for (std::size_t k = 0; k < n_sc; ++k) {
            const double f = frequencies_hz[k];
            Complex sum =
                los_amp *
                std::exp(Complex(0.0, -kTwoPi * f * los_delay));

            if (scene != nullptr) {
                // Wall crossings at full thickness (walls are thin).
                const auto& wall =
                    material_for(scene->beaker.wall_material);
                Complex through =
                    excess_transmission(wall, paths.wall_m[a], f);
                if (wall.conductor) {
                    through = Complex(kMetalTransmission, 0.0);
                }
                // Liquid column, effective-medium scaled. The attenuation
                // splits into a common-mode part (mean chord across the
                // array) and a differential part (this antenna's deviation
                // from the mean). Only the common-mode amplitude is floored
                // at min_common_transmission_db — the edge-diffraction
                // energy floor — so the differential structure that the
                // material feature measures is preserved exactly.
                const auto& inside =
                    scene->contents != nullptr ? *scene->contents : air();
                const double kappa = scene->effective_path_fraction;
                const auto inside_pc = propagation_constants(inside, f);
                const auto air_pc = propagation_constants(air(), f);
                const double alpha_exc =
                    inside_pc.alpha_np_per_m - air_pc.alpha_np_per_m;
                const double beta_exc =
                    inside_pc.beta_rad_per_m - air_pc.beta_rad_per_m;
                const double floor_amp = std::pow(
                    10.0, scene->min_common_transmission_db / 20.0);
                const double common_amp = std::max(
                    std::exp(-alpha_exc * kappa * mean_interior_m),
                    floor_amp);
                const double diff_amp = std::exp(
                    -alpha_exc * kappa *
                    (paths.interior_m[a] - mean_interior_m));
                const double liquid_phase =
                    -beta_exc * kappa * paths.interior_m[a];
                through *= common_amp * diff_amp *
                           std::exp(Complex(0.0, liquid_phase));
                // Interface (Fresnel) reflection losses are NOT applied
                // separately here: the effective-medium model (kappa + the
                // common-mode floor) already absorbs them — its floor
                // represents whatever energy reaches the receiver through
                // and around the container, interfaces included. Applying
                // Fresnel factors on top would double-count, and for
                // rays that miss the beaker the factor would not cancel in
                // the antenna ratios.
                sum *= through;

                if (diffraction_strength > 0.0) {
                    // Bypassing energy that did not take the through-ray.
                    sum += los_amp * diffraction_strength *
                           std::exp(Complex(0.0, diffraction_phase -
                                                     kTwoPi * f * los_delay));
                }
            }

            for (std::size_t m = 0; m < reflectors_.size(); ++m) {
                const auto& r = reflectors_[m];
                // Per-antenna phase from the plane-wave angle of arrival.
                const double aoa_delay =
                    (antenna_offset.x * std::cos(r.aoa_rad) +
                     antenna_offset.y * std::sin(r.aoa_rad)) /
                    kSpeedOfLight;
                const double delay = los_delay + r.excess_delay_s + aoa_delay;
                // A reflection's absolute field falls with its own path
                // length d + c*tau, which barely grows when the direct
                // path d stretches — so the multipath-to-LoS ratio grows
                // with distance. r.amplitude holds the ratio at the 2 m
                // reference link (the environment's K factor).
                const double detour = kSpeedOfLight * r.excess_delay_s;
                const double distance_scale =
                    (los_dist / (los_dist + detour)) /
                    (kReferenceLinkDistance /
                     (kReferenceLinkDistance + detour));
                const double amp = los_amp * r.amplitude * distance_scale *
                                   amp_jitter[m];
                sum += amp * std::exp(Complex(
                                 0.0, r.phase_offset + phase_jitter[m] -
                                          kTwoPi * f * delay));
            }
            h[a][k] = sum;
        }
    }
    return h;
}

}  // namespace wimi::rf
