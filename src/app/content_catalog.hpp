// Content catalog with Zipf popularity: what clients request. Video items
// carry a duration (the bitrate ladder decides actual bits); web items carry
// a page weight. Popularity rank 0 is the hottest item.
#pragma once

#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "sim/rng.hpp"

namespace eona::app {

enum class ContentKind { kVideo, kWebPage };

struct ContentItem {
  ContentId id;
  ContentKind kind = ContentKind::kVideo;
  Duration video_duration = 0.0;  ///< video length (kVideo)
  Bits page_bits = 0.0;           ///< payload size (kWebPage)
  std::string name;
};

/// Catalog of items ordered by popularity rank with a Zipf sampler.
class ContentCatalog {
 public:
  /// Builds `count` video items of `duration` seconds, Zipf(skew) popular.
  static ContentCatalog videos(std::size_t count, Duration duration,
                               double skew = 0.8) {
    EONA_EXPECTS(count > 0);
    EONA_EXPECTS(duration > 0.0);
    ContentCatalog catalog(count, skew);
    for (std::size_t i = 0; i < count; ++i) {
      ContentItem item;
      item.id = ContentId(static_cast<ContentId::rep_type>(i));
      item.kind = ContentKind::kVideo;
      item.video_duration = duration;
      item.name = "video-" + std::to_string(i);
      catalog.items_.push_back(std::move(item));
    }
    return catalog;
  }

  /// Builds `count` web pages of `page_bits` each, Zipf(skew) popular.
  static ContentCatalog pages(std::size_t count, Bits page_bits,
                              double skew = 0.8) {
    EONA_EXPECTS(count > 0);
    EONA_EXPECTS(page_bits > 0.0);
    ContentCatalog catalog(count, skew);
    for (std::size_t i = 0; i < count; ++i) {
      ContentItem item;
      item.id = ContentId(static_cast<ContentId::rep_type>(i));
      item.kind = ContentKind::kWebPage;
      item.page_bits = page_bits;
      item.name = "page-" + std::to_string(i);
      catalog.items_.push_back(std::move(item));
    }
    return catalog;
  }

  [[nodiscard]] const ContentItem& item(ContentId id) const {
    EONA_EXPECTS(id.valid() && id.value() < items_.size());
    return items_[id.value()];
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }

  /// Every item's id in catalog order: what a fully warmed cache holds.
  [[nodiscard]] std::vector<ContentId> ids() const {
    std::vector<ContentId> all;
    for (const ContentItem& item : items_) all.push_back(item.id);
    return all;
  }

  /// Draw a content id by popularity.
  [[nodiscard]] ContentId sample(sim::Rng& rng) const {
    return ContentId(
        static_cast<ContentId::rep_type>(sampler_.sample(rng)));
  }

  /// Popularity mass of a rank (analytic checks).
  [[nodiscard]] double popularity(ContentId id) const {
    return sampler_.probability(id.value());
  }

 private:
  ContentCatalog(std::size_t count, double skew) : sampler_(count, skew) {}

  std::vector<ContentItem> items_;
  sim::ZipfSampler sampler_;
};

}  // namespace eona::app
