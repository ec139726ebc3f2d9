#pragma once
/// \file export.hpp
/// \brief Machine-readable export of grid certifications: one row/object
///        per (probe power x stream length) operating point with the
///        link-budget BER and the measured MAE/CI. Built on the shared
///        common/ CSV and JSON writers, like the engine's batch export.

#include <string>
#include <vector>

#include "common/csv.hpp"
#include "compile/certify.hpp"
#include "compile/program.hpp"

namespace oscs::compile {

/// One program's certification record as a JSON object: function id,
/// arity, the certified operating point, MC MAE/CI/worst, the derived
/// error budget (mc_mae + mc_mae_ci - what runtime SLOs enforce) and the
/// deterministic approximation floor. `{"certified": false}` with only
/// the identity fields when the program was compiled without
/// certification.
[[nodiscard]] std::string certification_json(const CompiledProgram& program);

/// One row per grid cell: function id, probe power, BER, SNR, stream
/// length, repeats, MC MAE/CI/worst, electronic MAE, approximation floor.
[[nodiscard]] oscs::CsvTable grid_csv(const GridCertification& grid);

/// Whole surface as a JSON document: the function id, best/worst cells
/// and a "cells" array mirroring grid_csv().
[[nodiscard]] std::string grid_json(const GridCertification& grid);

/// Several surfaces (e.g. the whole registry) as one JSON document.
[[nodiscard]] std::string grid_json(
    const std::vector<GridCertification>& grids);

}  // namespace oscs::compile
