// HTTP adaptive video player over the fluid network.
//
// Mechanics live here (buffer dynamics, chunk pipeline, stall accounting,
// throughput estimation, beacons); *decisions* -- which CDN/server to use,
// which bitrate to request, when to switch -- are delegated to a PlayerBrain
// so the control module can plug in today's trial-and-error logic or the
// EONA-informed logic without touching the player.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "app/cdn.hpp"
#include "app/content_catalog.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "net/transfer.hpp"
#include "qoe/video_qoe.hpp"
#include "sim/event_bus.hpp"
#include "sim/events.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/session_record.hpp"

namespace eona::app {

/// Default mid-session QoE beacon cadence; the AppP estimates active
/// sessions from window record counts with it.
inline constexpr Duration kBeaconPeriod = 10.0;

/// Player tunables; defaults are typical of production HLS/DASH players.
struct PlayerConfig {
  std::vector<BitsPerSecond> ladder{kbps(300), kbps(700), mbps(1.5), mbps(3),
                                    mbps(6)};  ///< ascending renditions
  Duration chunk_duration = 4.0;
  Duration startup_target = 8.0;  ///< join when buffered >= this
  Duration resume_target = 4.0;   ///< restart playback after a stall
  Duration max_buffer = 24.0;     ///< stop fetching above this
  Duration beacon_period = kBeaconPeriod;  ///< mid-session QoE beacons
  /// Reconnect cost paid on every endpoint switch (DNS + TCP + TLS to the
  /// new server) before the next chunk request leaves.
  Duration switch_delay = 0.3;
  /// Cooldown before the brain is consulted about switching again.
  Duration min_switch_interval = 8.0;
};

/// Read-only player state handed to the brain at each decision point.
struct PlayerView {
  SessionId session;
  TimePoint now = 0.0;
  Duration buffer = 0.0;
  BitsPerSecond throughput_estimate = 0.0;  ///< EWMA; 0 before first chunk
  std::size_t bitrate_index = 0;
  CdnId cdn;
  ServerId server;
  std::uint64_t stall_count = 0;
  std::uint64_t stalls_since_switch = 0;
  bool stalled = false;
  bool joined = false;
  std::size_t chunks_fetched = 0;
  std::size_t chunks_total = 0;
  IspId isp;
  NodeId client_node;
  const std::vector<BitsPerSecond>* ladder = nullptr;
  Duration max_buffer = 0.0;  ///< the player's buffer ceiling
  /// True only for the choose_endpoint consult right after the data plane
  /// aborted a fetch on the current endpoint (hard failure, not QoE drift):
  /// hold/dwell logic should not pin the player to a dead endpoint.
  bool endpoint_failed = false;
};

/// Where the player is (or should be) fetching from.
struct Endpoint {
  CdnId cdn;
  ServerId server;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// Decision interface. One brain instance may serve many players (it gets
/// the full view each call); implementations live in eona::control.
class PlayerBrain {
 public:
  virtual ~PlayerBrain() = default;

  /// Pick the starting endpoint (and again whenever the player asks to
  /// switch).
  virtual Endpoint choose_endpoint(const PlayerView& view) = 0;

  /// Should the player abandon its current endpoint before the next chunk?
  virtual bool should_switch_endpoint(const PlayerView& view) = 0;

  /// Index into the ladder for the next chunk.
  virtual std::size_t choose_bitrate(const PlayerView& view) = 0;

  /// The data plane aborted a fetch on view's endpoint (view.endpoint_failed
  /// is set). Default: ignore. Health-tracking brains record the failure so
  /// subsequent choose_endpoint calls back off from the endpoint.
  virtual void note_transfer_failure(const PlayerView& view) {
    (void)view;
  }

  /// A chunk landed on view's endpoint after a failure episode; the brain
  /// may forgive any failure hold-down it held for it. Default: ignore.
  virtual void note_transfer_success(const PlayerView& view) {
    (void)view;
  }
};

/// One adaptive video session. Create, then call start(); the player runs
/// itself on the scheduler and reports the final beacon through the
/// collector and the completion callback.
class VideoPlayer {
 public:
  using DoneCallback = std::function<void(const telemetry::SessionRecord&)>;

  VideoPlayer(sim::Scheduler& sched, net::TransferManager& transfers,
              net::Network& network, const net::Routing& routing,
              const CdnDirectory& cdns, PlayerBrain& brain,
              telemetry::BeaconCollector* collector, PlayerConfig config,
              SessionId session, telemetry::Dimensions dims, NodeId client,
              ContentItem content, qoe::EngagementModel engagement = {},
              DoneCallback on_done = nullptr);

  VideoPlayer(const VideoPlayer&) = delete;
  VideoPlayer& operator=(const VideoPlayer&) = delete;
  ~VideoPlayer();

  /// Begin the session (request the first chunk).
  void start();

  /// Emit lifecycle events (stalls) on `bus`; usually set by SessionPool.
  void set_event_bus(sim::EventBus* bus) { bus_ = bus; }

  /// Tear down mid-session: cancels transfers, emits a final beacon.
  void abort();

  [[nodiscard]] bool finished() const { return state_ == State::kDone; }
  [[nodiscard]] bool stalled() const { return state_ == State::kStalled; }
  /// True from a data-plane fetch abort until the next delivered chunk.
  [[nodiscard]] bool stranded() const { return stranded_; }
  [[nodiscard]] SessionId session() const { return session_; }
  [[nodiscard]] Endpoint endpoint() const { return endpoint_; }
  [[nodiscard]] std::size_t bitrate_index() const { return bitrate_index_; }
  [[nodiscard]] Duration buffer_level() const;
  [[nodiscard]] std::uint64_t stall_count() const { return stall_count_; }
  [[nodiscard]] std::uint64_t cdn_switches() const { return cdn_switches_; }
  [[nodiscard]] std::uint64_t server_switches() const {
    return server_switches_;
  }
  [[nodiscard]] BitsPerSecond throughput_estimate() const {
    return throughput_ewma_;
  }

  /// Current session metrics snapshot (what a beacon would carry now).
  [[nodiscard]] telemetry::SessionMetrics metrics_now() const;

 private:
  enum class State { kCreated, kStartup, kPlaying, kStalled, kDone };

  [[nodiscard]] PlayerView view() const;
  void request_next_chunk();
  void on_chunk_complete();
  /// The data plane aborted the in-flight fetch (e.g. "link-down").
  void on_fetch_failed(const char* reason);
  void on_buffer_underrun();
  void reschedule_underrun();
  void maybe_schedule_finish();
  void emit_beacon();
  void finish();
  /// Accrue buffer drain up to now.
  void sync_buffer();

  sim::Scheduler& sched_;
  net::TransferManager& transfers_;
  net::Network& network_;
  const net::Routing& routing_;
  const CdnDirectory& cdns_;
  PlayerBrain& brain_;
  telemetry::BeaconCollector* collector_;
  PlayerConfig config_;
  SessionId session_;
  telemetry::Dimensions dims_;
  NodeId client_;
  ContentItem content_;
  qoe::EngagementModel engagement_;
  DoneCallback on_done_;

  State state_ = State::kCreated;
  qoe::VideoQoeTracker qoe_;
  Endpoint endpoint_;
  std::size_t bitrate_index_ = 0;
  Duration buffer_ = 0.0;
  TimePoint buffer_synced_at_ = 0.0;
  BitsPerSecond throughput_ewma_ = 0.0;
  static constexpr double kEwmaAlpha = 0.4;
  /// Delay before re-requesting after the data plane aborted the in-flight
  /// chunk (dead path); models client-side connection-error retry pacing.
  static constexpr Duration kRetryBackoff = 1.0;

  std::size_t chunks_total_ = 0;
  std::size_t chunks_fetched_ = 0;
  std::optional<net::TransferId> inflight_;
  TimePoint fetch_started_ = 0.0;
  Bits inflight_bits_ = 0.0;

  bool stranded_ = false;
  TimePoint stranded_since_ = 0.0;

  std::uint64_t stall_count_ = 0;
  std::uint64_t stalls_since_switch_ = 0;
  TimePoint switch_block_until_ = 0.0;  ///< reconnect cooldown
  std::uint64_t cdn_switches_ = 0;
  std::uint64_t server_switches_ = 0;

  Bits reported_bits_ = 0.0;  ///< volume already beaconed (delta encoding)

  sim::EventBus* bus_ = nullptr;

  sim::EventHandle underrun_event_;
  sim::EventHandle fetch_resume_event_;
  sim::EventHandle finish_event_;
  std::unique_ptr<sim::PeriodicTask> beacon_task_;
};

}  // namespace eona::app
