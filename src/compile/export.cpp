#include "compile/export.hpp"

#include "common/json.hpp"
#include "common/operating_point.hpp"

namespace oscs::compile {

std::string certification_json(const CompiledProgram& program) {
  oscs::JsonWriter json;
  json.begin_object()
      .field("function", program.function_id())
      .field("arity", program.arity())
      .field("certified", program.certification().has_value());
  if (const auto& cert = program.certification(); cert.has_value()) {
    json.key("operating_point");
    oscs::operating_point_json(json, cert->op);
    json.field("mc_mae", cert->mc_mae)
        .field("mc_mae_ci", cert->mc_mae_ci)
        .field("mc_worst", cert->mc_worst)
        .field("error_budget", *program.certified_error_budget())
        .field("electronic_mae", cert->electronic_mae)
        .field("approx_max_error", cert->approx_max_error)
        .field("stream_length", cert->stream_length)
        .field("repeats", cert->repeats)
        .field("grid_points", cert->grid_points)
        .field("noise_enabled", cert->noise_enabled);
  }
  json.end_object();
  return json.str();
}

oscs::CsvTable grid_csv(const GridCertification& grid) {
  oscs::CsvTable table({"function", "probe_power_mw", "ber", "snr",
                        "stream_length", "repeats", "mc_mae", "mc_mae_ci",
                        "mc_worst", "electronic_mae", "approx_max_error"});
  for (const GridCell& cell : grid.cells) {
    table.start_row();
    table.cell(grid.function_id);
    table.cell(cell.op.probe_power_mw);
    table.cell(cell.op.ber);
    table.cell(cell.op.snr);
    table.cell(cell.op.stream_length);
    table.cell(cell.cert.repeats);
    table.cell(cell.cert.mc_mae);
    table.cell(cell.cert.mc_mae_ci);
    table.cell(cell.cert.mc_worst);
    table.cell(cell.cert.electronic_mae);
    table.cell(cell.cert.approx_max_error);
  }
  return table;
}

void write_grid_csv(const GridCertification& grid, const std::string& path) {
  grid_csv(grid).write(path);
}

namespace {

void grid_body(oscs::JsonWriter& json, const GridCertification& grid) {
  json.begin_object()
      .field("function", grid.function_id)
      .field("cells_total", grid.cells.size())
      .field("best_mc_mae", grid.best_mc_mae())
      .field("worst_mc_mae", grid.worst_mc_mae());
  json.key("cells").begin_array();
  for (const GridCell& cell : grid.cells) {
    json.begin_object();
    json.key("operating_point");
    oscs::operating_point_json(json, cell.op);
    json.field("mc_mae", cell.cert.mc_mae)
        .field("mc_mae_ci", cell.cert.mc_mae_ci)
        .field("mc_worst", cell.cert.mc_worst)
        .field("electronic_mae", cell.cert.electronic_mae)
        .field("approx_max_error", cell.cert.approx_max_error)
        .field("repeats", cell.cert.repeats)
        .field("grid_points", cell.cert.grid_points)
        .end_object();
  }
  json.end_array().end_object();
}

}  // namespace

std::string grid_json(const GridCertification& grid) {
  oscs::JsonWriter json;
  grid_body(json, grid);
  return json.str();
}

std::string grid_json(const std::vector<GridCertification>& grids) {
  oscs::JsonWriter json;
  json.begin_object().field("functions", grids.size());
  json.key("grids").begin_array();
  for (const GridCertification& grid : grids) grid_body(json, grid);
  json.end_array().end_object();
  return json.str();
}

void write_grid_json(const GridCertification& grid, const std::string& path) {
  oscs::write_text_file(grid_json(grid), path, "write_grid_json");
}

void write_grid_json(const std::vector<GridCertification>& grids,
                     const std::string& path) {
  oscs::write_text_file(grid_json(grids), path, "write_grid_json");
}

}  // namespace oscs::compile
