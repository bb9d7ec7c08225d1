// Wireless charging model — Eq. 1 of the paper.
//
// Received power follows the empirically-adjusted Friis form
//
//     p_r(d) = alpha / (d + beta)^2 * p_c
//
// where d is the charger-to-sensor distance, alpha collapses antenna gains,
// wavelength, rectifier efficiency and polarisation loss into one constant,
// and beta regularises the short-distance singularity of the plain Friis
// equation.
//
// The paper is ambiguous about the charger's own power draw while charging:
// Eq. 1/3 use p_c as the radiated source power, but §VI-A quotes a
// consumption of 0.9 J/min. We therefore keep two knobs:
//   * transmit_power_w  — the p_c of Eq. 1; determines received power and
//                         hence stop durations;
//   * charge_cost_w     — what the charger spends per second while parked
//                         and radiating; determines charging energy.
// The default profiles set them equal (energy-conserving reading, which is
// the only reading that reproduces the interior optimum of Fig. 6(b)); the
// paper's literal 0.9 J/min figure is available as a separate profile.

#ifndef BUNDLECHARGE_CHARGING_MODEL_H_
#define BUNDLECHARGE_CHARGING_MODEL_H_

#include <algorithm>

#include "support/require.h"

namespace bc::charging {

class ChargingModel {
 public:
  // Preconditions: alpha > 0, beta > 0, powers > 0.
  ChargingModel(double alpha, double beta, double transmit_power_w,
                double charge_cost_w);

  // ICDCS'19 simulation parameterisation (§VI-A): alpha = 36, beta = 30,
  // with a 3 W transmitter whose electrical draw equals its radiated power.
  static ChargingModel icdcs2019_simulation();

  // Same attenuation constants but with the paper's literal "0.9 J/min"
  // charging consumption. Charging energy becomes negligible next to
  // movement; provided for the ablation bench.
  static ChargingModel icdcs2019_paper_cost();

  // Powercast TX91501 (3 W, 915 MHz) -> P2110 harvester, as in the
  // testbed of §VII; alpha derived from the Friis parameters of Eq. 1.
  static ChargingModel powercast_testbed();

  // Builds alpha from the physical constants of Eq. 1:
  // alpha = Gs * Gr * lambda^2 * eta / ((4 pi)^2 * Lp), gains linear.
  static ChargingModel from_friis(double tx_gain_dbi, double rx_gain_dbi,
                                  double wavelength_m, double rectifier_eff,
                                  double polarization_loss, double beta,
                                  double transmit_power_w,
                                  double charge_cost_w);

  double alpha() const { return alpha_; }
  double beta() const { return beta_; }
  double transmit_power_w() const { return transmit_power_w_; }
  double charge_cost_w() const { return charge_cost_w_; }

  // Power received by a sensor at distance d >= 0 (watts). Inline: the
  // evaluator's demand check calls it once per stop-sensor term.
  double received_power_w(double distance_m) const {
    bc::support::require(distance_m >= 0.0, "distance must be non-negative");
    const double denom = (distance_m + beta_) * (distance_m + beta_);
    // Energy conservation: Eq. 1 is an attenuation fit, and with alpha >
    // beta^2 its raw value would exceed the radiated power at short range.
    return std::min(1.0, alpha_ / denom) * transmit_power_w_;
  }

  // Seconds to deliver `energy_j` joules to a sensor at distance d.
  // Precondition: energy_j >= 0.
  double charge_time_s(double distance_m, double energy_j) const;

  // Charger-side energy spent while delivering `energy_j` to distance d.
  double charge_cost_j(double distance_m, double energy_j) const;

  // Energy the charger spends while parked for `seconds`.
  double cost_of_stop_j(double seconds) const;

  // The distance at which received power drops to `power_w`
  // (inverse of received_power_w); clamped at 0.
  double range_for_power_m(double power_w) const;

 private:
  double alpha_;
  double beta_;
  double transmit_power_w_;
  double charge_cost_w_;
};

}  // namespace bc::charging

#endif  // BUNDLECHARGE_CHARGING_MODEL_H_
