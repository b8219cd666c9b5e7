// Physical units used throughout the emulator. The fluid (flow-level) model
// works in continuous quantities, so rates and sizes are doubles; the helpers
// below keep call sites explicit about units (Core Guidelines P.1: express
// ideas directly in code -- `kbps(800)` rather than a bare 800'000.0).
#pragma once

namespace eona {

/// Simulated time in seconds since simulation start.
using TimePoint = double;
/// A span of simulated time, in seconds.
using Duration = double;
/// Data rate in bits per second.
using BitsPerSecond = double;
/// Data volume in bits.
using Bits = double;

inline constexpr Duration milliseconds(double ms) { return ms / 1e3; }
inline constexpr Duration seconds(double s) { return s; }

inline constexpr BitsPerSecond kbps(double v) { return v * 1e3; }
inline constexpr BitsPerSecond mbps(double v) { return v * 1e6; }
inline constexpr BitsPerSecond gbps(double v) { return v * 1e9; }

inline constexpr Bits megabits(double v) { return v * 1e6; }

}  // namespace eona
