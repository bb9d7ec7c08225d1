// Seeded sensor fields for the Algorithm 2 differential suites: the shapes
// that stress candidate enumeration (multi-word pools, coincident and
// collinear sensors) and the greedy cover's tie order (grids whose
// congruent bundles share a radius bit for bit).

#ifndef BUNDLECHARGE_TESTS_FIXTURES_COVER_FIELDS_H_
#define BUNDLECHARGE_TESTS_FIXTURES_COVER_FIELDS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "net/deployment.h"
#include "support/rng.h"

namespace bc::fixtures {

struct CoverField {
  std::string name;
  net::Deployment deployment;
};

// A deployment over exactly these positions (field = their bounding box).
inline net::Deployment deployment_at(std::vector<geometry::Point2> points) {
  const geometry::Box2 box = geometry::bounding_box(points);
  return net::Deployment(std::move(points), box, box.lo, 2.0);
}

// n sensors uniform in a side x side square.
inline net::Deployment uniform_field(std::size_t n, double side,
                                     std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<geometry::Point2> points;
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return deployment_at(std::move(points));
}

// n sensors in `clusters` Gaussian clumps (stddev `spread`) over a
// side x side square.
inline net::Deployment clustered_field(std::size_t n, std::size_t clusters,
                                       double side, double spread,
                                       std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<geometry::Point2> centres;
  for (std::size_t c = 0; c < clusters; ++c) {
    centres.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  std::vector<geometry::Point2> points;
  for (std::size_t i = 0; i < n; ++i) {
    const geometry::Point2 centre = centres[rng.below(clusters)];
    points.push_back({centre.x + rng.gaussian(0.0, spread),
                      centre.y + rng.gaussian(0.0, spread)});
  }
  return deployment_at(std::move(points));
}

// n sensors on two lines (a sloped one and a vertical one) at random
// spacing, so many pair circles hold only collinear members.
inline net::Deployment collinear_field(std::size_t n, double length,
                                       std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<geometry::Point2> points;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = rng.uniform(0.0, length);
    if (i % 3 == 2) {
      points.push_back({length / 2.0, t});
    } else {
      points.push_back({t, 0.5 * t});
    }
  }
  return deployment_at(std::move(points));
}

// n sensors stacked on `sites` distinct locations, so most sensors share
// their position with others.
inline net::Deployment coincident_field(std::size_t n, std::size_t sites,
                                        double side, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<geometry::Point2> locations;
  for (std::size_t s = 0; s < sites; ++s) {
    locations.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  std::vector<geometry::Point2> points;
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(locations[rng.below(sites)]);
  }
  return deployment_at(std::move(points));
}

// A rows x cols grid of pitch `step`; each point moves by a multiple of
// `jitter` in {-1, 0, 1} per axis. Coordinates stay exact binary
// fractions, so congruent bundles recur and their radii tie exactly.
inline net::Deployment jittered_grid(std::size_t rows, std::size_t cols,
                                     double step, double jitter,
                                     std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<geometry::Point2> points;
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t col = 0; col < cols; ++col) {
      const double jx = jitter * static_cast<double>(rng.between(-1, 1));
      const double jy = jitter * static_cast<double>(rng.between(-1, 1));
      points.push_back({static_cast<double>(col) * step + jx,
                        static_cast<double>(row) * step + jy});
    }
  }
  return deployment_at(std::move(points));
}

// The shared corpus, with a generation radius suited to each field.
struct CoverCase {
  CoverField field;
  double r;
};

inline std::vector<CoverCase> cover_corpus() {
  std::vector<CoverCase> corpus;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    corpus.push_back({{"uniform/" + std::to_string(seed),
                       uniform_field(150, 700.0, 100 + seed)},
                      60.0});
    corpus.push_back({{"clustered/" + std::to_string(seed),
                       clustered_field(160, 5, 800.0, 25.0, 200 + seed)},
                      30.0});
    corpus.push_back({{"collinear/" + std::to_string(seed),
                       collinear_field(90, 600.0, 300 + seed)},
                      40.0});
    corpus.push_back({{"coincident/" + std::to_string(seed),
                       coincident_field(80, 20, 300.0, 400 + seed)},
                      35.0});
    corpus.push_back({{"grid/" + std::to_string(seed),
                       jittered_grid(9, 11, 10.0, 0.0, 500 + seed)},
                      7.5 + 2.5 * static_cast<double>(seed)});
    corpus.push_back({{"jittered_grid/" + std::to_string(seed),
                       jittered_grid(10, 10, 8.0, 0.5, 600 + seed)},
                      6.0 + 3.0 * static_cast<double>(seed)});
  }
  return corpus;
}

}  // namespace bc::fixtures

#endif  // BUNDLECHARGE_TESTS_FIXTURES_COVER_FIELDS_H_
