#include "app/video_player.hpp"

#include <algorithm>
#include <cmath>

namespace eona::app {

VideoPlayer::VideoPlayer(sim::Scheduler& sched,
                         net::TransferManager& transfers, net::Network& network,
                         const net::Routing& routing, const CdnDirectory& cdns,
                         PlayerBrain& brain,
                         telemetry::BeaconCollector* collector,
                         PlayerConfig config, SessionId session,
                         telemetry::Dimensions dims, NodeId client,
                         ContentItem content, qoe::EngagementModel engagement,
                         DoneCallback on_done)
    : sched_(sched),
      transfers_(transfers),
      network_(network),
      routing_(routing),
      cdns_(cdns),
      brain_(brain),
      collector_(collector),
      config_(std::move(config)),
      session_(session),
      dims_(dims),
      client_(client),
      content_(std::move(content)),
      engagement_(engagement),
      on_done_(std::move(on_done)),
      qoe_(sched.now()),
      buffer_synced_at_(sched.now()) {
  EONA_EXPECTS(!config_.ladder.empty());
  EONA_EXPECTS(std::is_sorted(config_.ladder.begin(), config_.ladder.end()));
  EONA_EXPECTS(config_.chunk_duration > 0.0);
  EONA_EXPECTS(config_.startup_target < config_.max_buffer);
  EONA_EXPECTS(config_.resume_target < config_.max_buffer);
  EONA_EXPECTS(content_.kind == ContentKind::kVideo);
  EONA_EXPECTS(content_.video_duration > 0.0);
  chunks_total_ = static_cast<std::size_t>(
      std::ceil(content_.video_duration / config_.chunk_duration));
  dims_.isp = dims.isp;
}

VideoPlayer::~VideoPlayer() {
  // Silent teardown (no final beacon): the owner is dismantling the world.
  if (inflight_ && transfers_.active(*inflight_)) transfers_.cancel(*inflight_);
  sched_.cancel(underrun_event_);
  sched_.cancel(fetch_resume_event_);
  sched_.cancel(finish_event_);
}

void VideoPlayer::start() {
  EONA_EXPECTS(state_ == State::kCreated);
  state_ = State::kStartup;
  PlayerView v = view();
  endpoint_ = brain_.choose_endpoint(v);
  dims_.cdn = endpoint_.cdn;
  dims_.server = endpoint_.server;
  if (collector_ && config_.beacon_period > 0.0) {
    beacon_task_ = std::make_unique<sim::PeriodicTask>(
        sched_, config_.beacon_period, [this] { emit_beacon(); });
  }
  request_next_chunk();
}

void VideoPlayer::abort() {
  if (state_ == State::kDone) return;
  if (inflight_ && transfers_.active(*inflight_)) transfers_.cancel(*inflight_);
  inflight_.reset();
  finish();
}

Duration VideoPlayer::buffer_level() const {
  if (state_ != State::kPlaying) return buffer_;
  Duration drained = sched_.now() - buffer_synced_at_;
  return std::max(buffer_ - drained, 0.0);
}

telemetry::SessionMetrics VideoPlayer::metrics_now() const {
  return qoe_.snapshot(sched_.now(), engagement_);
}

PlayerView VideoPlayer::view() const {
  PlayerView v;
  v.session = session_;
  v.now = sched_.now();
  v.buffer = buffer_level();
  v.throughput_estimate = throughput_ewma_;
  v.bitrate_index = bitrate_index_;
  v.cdn = endpoint_.cdn;
  v.server = endpoint_.server;
  v.stall_count = stall_count_;
  v.stalls_since_switch = stalls_since_switch_;
  v.stalled = state_ == State::kStalled;
  v.joined = qoe_.joined();
  v.chunks_fetched = chunks_fetched_;
  v.chunks_total = chunks_total_;
  v.isp = dims_.isp;
  v.client_node = client_;
  v.ladder = &config_.ladder;
  v.max_buffer = config_.max_buffer;
  return v;
}

void VideoPlayer::sync_buffer() {
  TimePoint now = sched_.now();
  if (state_ == State::kPlaying)
    buffer_ = std::max(buffer_ - (now - buffer_synced_at_), 0.0);
  buffer_synced_at_ = now;
}

void VideoPlayer::request_next_chunk() {
  EONA_ASSERT(!inflight_);
  if (state_ == State::kDone || chunks_fetched_ == chunks_total_) return;
  sync_buffer();

  PlayerView v = view();
  // Endpoint reconsideration happens at every chunk boundary after the
  // first: this is where trial-and-error CDN switching (baseline) or
  // hint-guided switching (EONA) plugs in. A switch pays the reconnect
  // delay before the next chunk request can leave.
  if (chunks_fetched_ > 0 && sched_.now() >= switch_block_until_ &&
      brain_.should_switch_endpoint(v)) {
    Endpoint next = brain_.choose_endpoint(v);
    if (!(next == endpoint_)) {
      if (next.cdn != endpoint_.cdn)
        ++cdn_switches_;
      else
        ++server_switches_;
      endpoint_ = next;
      stalls_since_switch_ = 0;
      dims_.cdn = endpoint_.cdn;
      dims_.server = endpoint_.server;
      switch_block_until_ =
          sched_.now() +
          std::max(config_.switch_delay, config_.min_switch_interval);
      if (config_.switch_delay > 0.0) {
        fetch_resume_event_ = sched_.schedule_after(
            config_.switch_delay, [this] { request_next_chunk(); });
        return;
      }
      v = view();
    }
  }

  std::size_t idx = brain_.choose_bitrate(v);
  EONA_EXPECTS(idx < config_.ladder.size());
  if (idx != bitrate_index_) {
    bitrate_index_ = idx;
    if (qoe_.joined())
      qoe_.on_bitrate_change(sched_.now(), config_.ladder[idx]);
  }

  Cdn& cdn = cdns_.at(endpoint_.cdn);
  FetchPlan plan = cdn.plan_fetch(content_.id, endpoint_.server, client_,
                                  dims_.isp, routing_);
  inflight_bits_ = config_.ladder[bitrate_index_] * config_.chunk_duration;
  fetch_started_ = sched_.now();
  inflight_ = transfers_.start(
      plan.path, inflight_bits_,
      [this](net::TransferId) { on_chunk_complete(); }, net::kElasticDemand,
      [this](net::TransferId, const char* reason) { on_fetch_failed(reason); });
}

void VideoPlayer::on_fetch_failed(const char* reason) {
  inflight_.reset();
  sync_buffer();
  TimePoint now = sched_.now();
  if (!stranded_) {
    stranded_ = true;
    stranded_since_ = now;
    if (bus_ != nullptr)
      bus_->publish(sim::SessionStrandedEvent{now, session_, reason});
  }

  // Let a health-tracking brain remember the dead endpoint, then re-select.
  // A hard failure bypasses the switch cooldown: the connection is gone and
  // a reconnect is due either way, so pinning to the dead endpoint only
  // guarantees another failure.
  PlayerView v = view();
  v.endpoint_failed = true;
  brain_.note_transfer_failure(v);
  Endpoint next = brain_.choose_endpoint(v);
  if (!(next == endpoint_)) {
    if (next.cdn != endpoint_.cdn)
      ++cdn_switches_;
    else
      ++server_switches_;
    endpoint_ = next;
    stalls_since_switch_ = 0;
    dims_.cdn = endpoint_.cdn;
    dims_.server = endpoint_.server;
    switch_block_until_ =
        now + std::max(config_.switch_delay, config_.min_switch_interval);
  }
  // Re-request after the retry pacing delay (never same-timestamp: a still-
  // dead path would abort the refetch immediately and spin the scheduler).
  sched_.cancel(fetch_resume_event_);
  fetch_resume_event_ = sched_.schedule_after(
      std::max(kRetryBackoff, config_.switch_delay),
      [this] { request_next_chunk(); });
}

void VideoPlayer::on_chunk_complete() {
  inflight_.reset();
  sync_buffer();
  TimePoint now = sched_.now();
  if (stranded_) {
    stranded_ = false;
    brain_.note_transfer_success(view());
    if (bus_ != nullptr)
      bus_->publish(
          sim::SessionResumedEvent{now, session_, now - stranded_since_});
  }

  Duration fetch_time = now - fetch_started_;
  if (fetch_time > 0.0) {
    BitsPerSecond sample = inflight_bits_ / fetch_time;
    throughput_ewma_ = throughput_ewma_ <= 0.0
                           ? sample
                           : kEwmaAlpha * sample +
                                 (1.0 - kEwmaAlpha) * throughput_ewma_;
  }
  qoe_.on_bits_delivered(inflight_bits_);
  buffer_ += config_.chunk_duration;
  ++chunks_fetched_;

  if (state_ == State::kStartup && buffer_ >= config_.startup_target) {
    state_ = State::kPlaying;
    qoe_.on_join(now, config_.ladder[bitrate_index_]);
  } else if (state_ == State::kStalled && buffer_ >= config_.resume_target) {
    state_ = State::kPlaying;
    qoe_.on_stall_end(now);
  }
  reschedule_underrun();

  if (chunks_fetched_ == chunks_total_) {
    maybe_schedule_finish();
    return;
  }

  if (buffer_ > config_.max_buffer - config_.chunk_duration) {
    // No room for a whole chunk below the cap: let playback drain first,
    // so the buffer never exceeds max_buffer.
    Duration wait = buffer_ - (config_.max_buffer - config_.chunk_duration);
    fetch_resume_event_ =
        sched_.schedule_after(wait, [this] { request_next_chunk(); });
  } else {
    request_next_chunk();
  }
}

void VideoPlayer::reschedule_underrun() {
  if (state_ != State::kPlaying) {
    sched_.cancel(underrun_event_);
    return;
  }
  sync_buffer();
  // Every chunk moves the underrun time; move the queued event in place
  // rather than leaving a dead one behind per chunk.
  if (sched_.rekey(underrun_event_, sched_.now() + buffer_)) return;
  underrun_event_ =
      sched_.schedule_after(buffer_, [this] { on_buffer_underrun(); });
}

void VideoPlayer::on_buffer_underrun() {
  sync_buffer();
  buffer_ = 0.0;
  if (chunks_fetched_ == chunks_total_) {
    finish();
    return;
  }
  EONA_ASSERT(state_ == State::kPlaying);
  state_ = State::kStalled;
  ++stall_count_;
  ++stalls_since_switch_;
  qoe_.on_stall_start(sched_.now());
  if (bus_ != nullptr)
    bus_->publish(
        sim::SessionStalledEvent{sched_.now(), session_, stall_count_});

  // Stall-time abandonment: ask the brain whether to give up on the current
  // endpoint right now. A switch cancels the in-flight chunk -- its partial
  // progress is lost (as with a real aborted HTTP request) -- and re-requests
  // from the new endpoint after the reconnect delay.
  if (inflight_ && sched_.now() >= switch_block_until_) {
    PlayerView v = view();
    if (brain_.should_switch_endpoint(v)) {
      Endpoint next = brain_.choose_endpoint(v);
      if (!(next == endpoint_)) {
        if (next.cdn != endpoint_.cdn)
          ++cdn_switches_;
        else
          ++server_switches_;
        endpoint_ = next;
        stalls_since_switch_ = 0;
        dims_.cdn = endpoint_.cdn;
        dims_.server = endpoint_.server;
        switch_block_until_ =
            sched_.now() +
            std::max(config_.switch_delay, config_.min_switch_interval);
        // Abandon the in-flight chunk; its partial bits are wasted and the
        // chunk is re-requested from the new endpoint (it was never counted
        // in chunks_fetched_, so no counter adjustment is needed).
        transfers_.cancel(*inflight_);
        inflight_.reset();
        fetch_resume_event_ = sched_.schedule_after(
            config_.switch_delay, [this] { request_next_chunk(); });
        return;
      }
    }
  }
  // Bitrate abandonment: the in-flight chunk is evidently not arriving in
  // time; if a lower rendition is available, abort the request and refetch
  // small (standard DASH abandonment). Progress on the aborted chunk is
  // lost. Guarded to strictly-lower renditions so a floor-rate stall cannot
  // livelock on restarts.
  if (inflight_ && bitrate_index_ > 0) {
    std::size_t fallback = brain_.choose_bitrate(view());
    if (fallback < bitrate_index_) {
      transfers_.cancel(*inflight_);
      inflight_.reset();
      request_next_chunk();
      return;
    }
  }
  // Defensive: if no fetch is in flight or queued (should not happen), kick
  // the pipeline so the session cannot wedge.
  if (!inflight_ && !fetch_resume_event_.pending()) request_next_chunk();
}

void VideoPlayer::maybe_schedule_finish() {
  sync_buffer();
  TimePoint now = sched_.now();
  if (state_ == State::kStartup) {
    // Whole (short) video fetched before the startup target was reached:
    // join now and play it out.
    state_ = State::kPlaying;
    qoe_.on_join(now, config_.ladder[bitrate_index_]);
  } else if (state_ == State::kStalled) {
    state_ = State::kPlaying;
    qoe_.on_stall_end(now);
  }
  sched_.cancel(underrun_event_);
  buffer_synced_at_ = now;
  finish_event_ = sched_.schedule_after(buffer_, [this] { finish(); });
}

void VideoPlayer::emit_beacon() {
  if (!collector_ || state_ == State::kDone) return;
  telemetry::SessionRecord record;
  record.session = session_;
  record.dims = dims_;
  record.metrics = metrics_now();
  // Beacons carry the traffic *delta* since the previous beacon so the
  // AppP's windowed aggregation can sum volumes without double counting.
  Bits cumulative = record.metrics.bytes_delivered;
  record.metrics.bytes_delivered = cumulative - reported_bits_;
  reported_bits_ = cumulative;
  record.timestamp = sched_.now();
  collector_->report(record);
}

void VideoPlayer::finish() {
  if (state_ == State::kDone) return;
  sync_buffer();
  state_ = State::kDone;
  beacon_task_.reset();
  sched_.cancel(underrun_event_);
  sched_.cancel(fetch_resume_event_);
  sched_.cancel(finish_event_);

  telemetry::SessionRecord record;
  record.session = session_;
  record.dims = dims_;
  record.metrics = qoe_.snapshot(sched_.now(), engagement_);
  record.timestamp = sched_.now();
  // The completion callback sees whole-session metrics (cumulative volume);
  // only the beacon stream into the collector is delta-encoded.
  telemetry::SessionRecord beacon = record;
  beacon.metrics.bytes_delivered =
      record.metrics.bytes_delivered - reported_bits_;
  reported_bits_ = record.metrics.bytes_delivered;
  if (collector_) collector_->report(beacon);
  if (on_done_) on_done_(record);
}

}  // namespace eona::app
