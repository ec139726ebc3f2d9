#pragma once
/// \file serialize.hpp
/// \brief Versioned binary serialization of compiled programs - the
///        persistence layer behind ProgramCache::save/load and the server
///        prewarm manifest. Per-struct write/read pairs (mirroring the
///        per-layer fwrite/fread shape of compiled-artifact stores) cover
///        ProgramKey, the projection/quantization outcomes of every
///        program form (univariate, bivariate, N-ary separable) and the
///        Certification record, all in the fixed-width little-endian
///        encoding of common/binio.hpp behind a magic + format-version
///        header.
///
/// Cache-file layout (all integers little-endian):
///
///   header:  magic "OSCSPROG" (8 bytes)
///            u32 format version (kCacheFormatVersion)
///            u32 reserved (0)
///            u64 record count
///   record:  u64 key digest   (ProgramKey::digest() - portable identity)
///            u32 payload size (bytes that follow the checksum)
///            u64 payload FNV-1a checksum
///            payload          (form tag + key + program + certification)
///
/// The digest/checksum pair makes every record independently verifiable:
/// a loader can skip a corrupt record by its declared size and keep
/// going, so file corruption degrades to a cold compile instead of a
/// startup failure.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/binio.hpp"
#include "compile/program.hpp"

namespace oscs::compile {

/// Cache-file magic, first 8 bytes of every file.
inline constexpr char kCacheMagic[8] = {'O', 'S', 'C', 'S',
                                        'P', 'R', 'O', 'G'};
/// Bump on any change to the record payload encoding or to what its
/// certificates measured. Version-mismatched files are rejected whole (a
/// counted load error, never a crash), so a prewarm recompiles them.
/// Version 2: certificates measured under stimulus contract v2
/// (stochastic/resc.hpp) and averaged over kCertificationDraws draws
/// (compile/certify.hpp); a version-1 file's certificates describe one
/// draw of the one-comparator-per-cell stimulus.
inline constexpr std::uint32_t kCacheFormatVersion = 2;

/// Program-form tag leading every record payload.
enum class ProgramForm : std::uint8_t {
  kUnivariate = 1,
  kBivariate = 2,
  kSeparable = 3,
};

// Per-struct pairs. Readers throw BinIoError on truncation or
// structurally invalid data (coefficients outside [0,1], level/coefficient
// count mismatches); callers catch per record.

void write_program_key(BinWriter& out, const ProgramKey& key);
[[nodiscard]] ProgramKey read_program_key(BinReader& in);

void write_poly(BinWriter& out, const stochastic::BernsteinPoly& poly);
/// \param unit_box require every coefficient in [0,1] (the SNG condition;
///        on for every polynomial the hardware runs).
[[nodiscard]] stochastic::BernsteinPoly read_poly(BinReader& in,
                                                  bool unit_box);

void write_poly2(BinWriter& out, const stochastic::BernsteinPoly2& poly);
[[nodiscard]] stochastic::BernsteinPoly2 read_poly2(BinReader& in,
                                                    bool unit_box);

void write_separable_program(BinWriter& out,
                             const stochastic::SeparableProgram& program);
[[nodiscard]] stochastic::SeparableProgram read_separable_program(
    BinReader& in, bool unit_box);

void write_projection(BinWriter& out, const ProjectionResult& projection);
[[nodiscard]] ProjectionResult read_projection(BinReader& in);

void write_projection2(BinWriter& out, const ProjectionResult2& projection);
[[nodiscard]] ProjectionResult2 read_projection2(BinReader& in);

void write_projection_nd(BinWriter& out, const ProjectionResultN& projection);
[[nodiscard]] ProjectionResultN read_projection_nd(BinReader& in);

void write_quantization(BinWriter& out, const QuantizationResult& quantization);
[[nodiscard]] QuantizationResult read_quantization(BinReader& in);

void write_quantization2(BinWriter& out,
                         const QuantizationResult2& quantization);
[[nodiscard]] QuantizationResult2 read_quantization2(BinReader& in);

void write_certification(BinWriter& out, const Certification& cert);
[[nodiscard]] Certification read_certification(BinReader& in);

/// One whole record payload: form tag, key, per-form projection +
/// quantization structs, optional certification.
void write_compiled_program(BinWriter& out, const CompiledProgram& program);

/// Rebuild a program from one record payload. The CompiledProgram
/// constructor re-derives the circuit, packed kernel and design operating
/// point deterministically from the stored coefficients, so a loaded
/// program is bit-identical in execution to the one that was saved.
/// \throws BinIoError on truncated/invalid payloads; std::invalid_argument
///         out of the CompiledProgram constructors on inconsistent data.
[[nodiscard]] std::shared_ptr<const CompiledProgram> read_compiled_program(
    BinReader& in);

}  // namespace oscs::compile
