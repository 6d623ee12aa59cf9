#ifndef CGKGR_CGKGR_H_
#define CGKGR_CGKGR_H_

/// \file
/// Umbrella header: the library's public API in one include.
///
/// \code
///   #include "cgkgr.h"
/// \endcode

#include "common/flags.h"          // IWYU pragma: export
#include "common/logging.h"        // IWYU pragma: export
#include "common/rng.h"            // IWYU pragma: export
#include "common/status.h"         // IWYU pragma: export
#include "common/string_util.h"    // IWYU pragma: export
#include "common/table_printer.h"  // IWYU pragma: export
#include "common/timer.h"          // IWYU pragma: export
#include "core/cgkgr_config.h"     // IWYU pragma: export
#include "core/cgkgr_model.h"      // IWYU pragma: export
#include "data/corruption.h"       // IWYU pragma: export
#include "data/dataset.h"          // IWYU pragma: export
#include "data/io.h"               // IWYU pragma: export
#include "data/presets.h"          // IWYU pragma: export
#include "data/synthetic.h"        // IWYU pragma: export
#include "eval/experiment.h"       // IWYU pragma: export
#include "eval/metrics.h"          // IWYU pragma: export
#include "eval/protocol.h"         // IWYU pragma: export
#include "eval/wilcoxon.h"         // IWYU pragma: export
#include "models/recommender.h"    // IWYU pragma: export
#include "models/registry.h"       // IWYU pragma: export

#endif  // CGKGR_CGKGR_H_
