// Test oracle for the tour improvers (src/tsp/improve.h) and the solver
// facade (src/tsp/solver.h): the neighbour-list 2-opt, Or-opt,
// improve_tour and solve_tsp as they were before improve_tour kept one
// search state across its rounds, solve_tsp shared one set of neighbour
// lists and Or-opt certification re-checked only what moves changed. Same
// contracts, counters and trace spans; the library must match them bit
// for bit. Unlike improve_reference.h (a naive full scan that reaches a
// different local optimum), this oracle takes the same moves in the same
// order.

#ifndef BUNDLECHARGE_TESTS_ORACLES_IMPROVE_PARENT_H_
#define BUNDLECHARGE_TESTS_ORACLES_IMPROVE_PARENT_H_

#include <span>

#include "support/deadline.h"
#include "tsp/distance_table.h"
#include "tsp/improve.h"
#include "tsp/solver.h"
#include "tsp/tour.h"

namespace bc::tsp::parent {

double two_opt(const DistanceTable& table, Tour& order,
               const ImproveOptions& options = ImproveOptions{},
               support::BudgetMeter* meter = nullptr);
double or_opt(const DistanceTable& table, Tour& order,
              const ImproveOptions& options = ImproveOptions{},
              support::BudgetMeter* meter = nullptr);
double improve_tour(const DistanceTable& table, Tour& order,
                    const ImproveOptions& options = ImproveOptions{},
                    support::BudgetMeter* meter = nullptr);
double two_opt(std::span<const geometry::Point2> points, Tour& order,
               const ImproveOptions& options = ImproveOptions{},
               support::BudgetMeter* meter = nullptr);
double or_opt(std::span<const geometry::Point2> points, Tour& order,
              const ImproveOptions& options = ImproveOptions{},
              support::BudgetMeter* meter = nullptr);
double improve_tour(std::span<const geometry::Point2> points, Tour& order,
                    const ImproveOptions& options = ImproveOptions{},
                    support::BudgetMeter* meter = nullptr);
Tour solve_tsp(const DistanceTable& table,
               const SolverOptions& options = SolverOptions{},
               support::BudgetMeter* meter = nullptr);

}  // namespace bc::tsp::parent

#endif  // BUNDLECHARGE_TESTS_ORACLES_IMPROVE_PARENT_H_
