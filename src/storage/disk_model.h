// Disk channel cost model for a single 7200 rpm drive (the paper's hardware).
//
// Sequential transfers are charged at streaming bandwidth; random page reads
// pay a seek + rotational cost each. Write-back of dirty 8 KB pages is charged
// per page — the paper stresses that a page is written whole no matter how few
// bytes are dirty, which is why tiny writesets generate outsized disk traffic.
#ifndef SRC_STORAGE_DISK_MODEL_H_
#define SRC_STORAGE_DISK_MODEL_H_

#include "src/common/units.h"

namespace tashkent {

struct DiskModel {
  // Streaming read bandwidth. 7200 rpm drives of the era sustain 50-70 MB/s;
  // sequential scans through PostgreSQL also pay per-tuple CPU, modeled
  // separately in the engine.
  static constexpr double kSequentialReadMbps = 64.0;

  // Cost of one random 8 KB page read (seek + half rotation + transfer).
  static constexpr SimDuration kRandomReadPerPage = Micros(13000);

  // Cost of writing back one dirty 8 KB page. The background writer sorts and
  // coalesces, so this is cheaper than a cold random read.
  static constexpr SimDuration kWritePerPage = Micros(4000);

  static SimDuration SequentialReadTime(Pages pages) {
    const double bytes = static_cast<double>(PagesToBytes(pages));
    const double seconds = bytes / (kSequentialReadMbps * 1024.0 * 1024.0);
    return Seconds(seconds);
  }

  static SimDuration RandomReadTime(Pages pages) { return pages * kRandomReadPerPage; }

  static SimDuration WriteTime(Pages pages) { return pages * kWritePerPage; }
};

}  // namespace tashkent

#endif  // SRC_STORAGE_DISK_MODEL_H_
