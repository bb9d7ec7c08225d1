#include "charging/model.h"

#include <cmath>
#include <numbers>

#include "support/require.h"

namespace bc::charging {

namespace {

double dbi_to_linear(double dbi) { return std::pow(10.0, dbi / 10.0); }

}  // namespace

ChargingModel::ChargingModel(double alpha, double beta,
                             double transmit_power_w, double charge_cost_w)
    : alpha_(alpha),
      beta_(beta),
      transmit_power_w_(transmit_power_w),
      charge_cost_w_(charge_cost_w) {
  bc::support::require(alpha > 0.0, "alpha must be positive");
  bc::support::require(beta > 0.0, "beta must be positive");
  bc::support::require(transmit_power_w > 0.0,
                       "transmit power must be positive");
  bc::support::require(charge_cost_w > 0.0, "charge cost must be positive");
}

ChargingModel ChargingModel::icdcs2019_simulation() {
  return ChargingModel(/*alpha=*/36.0, /*beta=*/30.0,
                       /*transmit_power_w=*/3.0, /*charge_cost_w=*/3.0);
}

ChargingModel ChargingModel::icdcs2019_paper_cost() {
  // 0.9 J/min = 0.015 W (5 mA x 3 V).
  return ChargingModel(/*alpha=*/36.0, /*beta=*/30.0,
                       /*transmit_power_w=*/3.0, /*charge_cost_w=*/0.015);
}

ChargingModel ChargingModel::powercast_testbed() {
  // TX91501: 3 W at 915 MHz (lambda = 0.33 m), 8 dBi patch; P2110 receiver
  // behind a 2 dBi dipole; 25 % rectifier efficiency and 3 dB polarisation
  // loss give a few milliwatts harvested at 1 m, matching the datasheet.
  return from_friis(/*tx_gain_dbi=*/8.0, /*rx_gain_dbi=*/2.0,
                    /*wavelength_m=*/0.33, /*rectifier_eff=*/0.25,
                    /*polarization_loss=*/2.0, /*beta=*/0.1,
                    /*transmit_power_w=*/3.0, /*charge_cost_w=*/3.0);
}

ChargingModel ChargingModel::from_friis(double tx_gain_dbi, double rx_gain_dbi,
                                        double wavelength_m,
                                        double rectifier_eff,
                                        double polarization_loss, double beta,
                                        double transmit_power_w,
                                        double charge_cost_w) {
  bc::support::require(std::isfinite(tx_gain_dbi) && std::isfinite(rx_gain_dbi),
                       "antenna gains must be finite");
  bc::support::require(std::isfinite(wavelength_m) && wavelength_m > 0.0,
                       "wavelength must be positive and finite");
  bc::support::require(rectifier_eff > 0.0 && rectifier_eff <= 1.0,
                       "rectifier efficiency must be in (0, 1]");
  bc::support::require(
      std::isfinite(polarization_loss) && polarization_loss >= 1.0,
      "polarisation loss is a linear factor >= 1");
  const double four_pi = 4.0 * std::numbers::pi;
  const double alpha = dbi_to_linear(tx_gain_dbi) * dbi_to_linear(rx_gain_dbi) *
                       wavelength_m * wavelength_m * rectifier_eff /
                       (four_pi * four_pi * polarization_loss);
  return ChargingModel(alpha, beta, transmit_power_w, charge_cost_w);
}

double ChargingModel::charge_time_s(double distance_m, double energy_j) const {
  bc::support::require(energy_j >= 0.0, "energy must be non-negative");
  if (energy_j == 0.0) return 0.0;
  return energy_j / received_power_w(distance_m);
}

double ChargingModel::charge_cost_j(double distance_m, double energy_j) const {
  return charge_cost_w_ * charge_time_s(distance_m, energy_j);
}

double ChargingModel::cost_of_stop_j(double seconds) const {
  bc::support::require(seconds >= 0.0, "stop time must be non-negative");
  return charge_cost_w_ * seconds;
}

double ChargingModel::range_for_power_m(double power_w) const {
  bc::support::require(power_w > 0.0, "power must be positive");
  // Above the conservation clamp nothing is ever received, so the range
  // collapses to 0 (consistent with the clamp in received_power_w).
  if (power_w >= transmit_power_w_) return 0.0;
  const double d = std::sqrt(alpha_ * transmit_power_w_ / power_w) - beta_;
  return d > 0.0 ? d : 0.0;
}

}  // namespace bc::charging
