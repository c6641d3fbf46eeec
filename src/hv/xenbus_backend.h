// XenbusBackend: backend invocation (paper §4.1), shared by netback (vifs)
// and blkback (vbds). A root watch on the driver domain's backend/<type>
// directory records the device its event names and wakes a xenwatch thread,
// which visits only the named devices, as Linux's xenbus_dev_changed does;
// only the watch's registration fire lists the whole directory. An instance
// exists from the moment its backend node appears (Advertise() publishes
// InitWait and any features) and connects once its frontend is Initialised;
// a failed connect keeps it and revisits it on a 1 ms timer. It is reaped
// when its frontend's domain is destroyed or, once paired, when its frontend
// reaches Closing/Closed, and retired through the online = 0 drain handshake
// (migration). Shut-down instances wait in a graveyard until their parked
// worker threads exit.
//
// Each device is one Instance, a XenbusBackendInstance below that owns the
// lifecycle both kinds share: identity and paths, the event channel, the
// worker-thread count, the watchdog registration, shutdown and drain. The
// Instance itself provides only what differs by kind: kType, kName,
// Advertise(), Connect() (false: retry), ReadyToRetire() and
// RetireGracefully().
//
// Header-only: its users (src/netdrv, src/blkdrv) link the BMK scheduler.
#ifndef SRC_HV_XENBUS_BACKEND_H_
#define SRC_HV_XENBUS_BACKEND_H_

#include <algorithm>
#include <coroutine>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/bmk/sched.h"
#include "src/hv/domain.h"
#include "src/hv/hypervisor.h"
#include "src/hv/xenbus.h"
#include "src/os/profile.h"

namespace kite {

// The backend half of one xenbus device, shared by NetbackInstance and
// BlkbackInstance. Its worker threads are BMK coroutines parked in the
// driver domain's scheduler, so a shut-down instance must stay allocated
// until drained(); XenbusBackend keeps it in a graveyard until then.
class XenbusBackendInstance {
 public:
  XenbusBackendInstance(const XenbusBackendInstance&) = delete;
  XenbusBackendInstance& operator=(const XenbusBackendInstance&) = delete;

  DomId frontend_dom() const { return frontend_dom_; }
  int devid() const { return devid_; }
  bool connected() const { return connected_; }
  bool drained() const { return threads_running_ == 0; }
  void set_on_drained(std::function<void()> fn) { on_drained_ = std::move(fn); }

  // Frontend death (paper §6: guests may crash at any time): stop accepting
  // work, deregister from the watchdog (a dead frontend's frozen ring must
  // not read as a stall), close the port (the dead frontend can't notify us,
  // and we must not notify into its recycled port number), and wake the
  // worker threads so they exit at their next resumption.
  void BeginShutdown() {
    if (stopping_) {
      return;
    }
    stopping_ = true;
    connected_ = false;
    StopIntake(/*shutdown=*/true);
    UnregisterHealth();
    if (port_ != kInvalidPort) {
      hv_->EventClose(backend_, port_);
      port_ = kInvalidPort;
    }
    WakeThreads();
  }

  // Graceful drain (toolstack-initiated migration): stop consuming new ring
  // requests but finish the work already accepted. Unconsumed requests stay
  // on the ring, unacknowledged, for the frontend to resubmit after relink.
  void RequestDrain() {
    if (draining_ || stopping_) {
      return;
    }
    draining_ = true;
    StopIntake(/*shutdown=*/false);
    WakeThreads();
  }

 protected:
  XenbusBackendInstance(Domain* backend, BmkSched* sched, const OsCostProfile* costs,
                        const char* type, DomId frontend_dom, int devid)
      : backend_(backend),
        hv_(backend->hypervisor()),
        sched_(sched),
        costs_(costs),
        frontend_dom_(frontend_dom),
        devid_(devid),
        name_(StrFormat("%s%d.%d", type, frontend_dom, devid)),
        rows_(hv_->metrics().Own(backend->name(), name_, backend->name(),
                                 StrFormat("%s-retired", type))),
        backend_path_(BackendPath(backend->id(), type, frontend_dom, devid)),
        frontend_path_(FrontendPath(frontend_dom, type, devid)) {}

  // Normally BeginShutdown already unregistered; the driver-destructor path
  // tears instances down without it, and a stale sampler would dangle.
  virtual ~XenbusBackendInstance() {
    UnregisterHealth();
    if (port_ != kInvalidPort) {
      hv_->EventClose(backend_, port_);
    }
  }

  // Wakes every worker thread. The event handler does only this (paper
  // §3.2: no hypercall work in the notification path), as do drain and
  // shutdown.
  virtual void WakeThreads() = 0;
  // Stops taking new work from the driver domain's side; on shutdown also
  // drops what was queued but not yet accepted by the frontend.
  virtual void StopIntake(bool shutdown) {}

  void SwitchState(XenbusState state) {
    XenbusClient(&hv_->store(), backend_->id()).SwitchState(backend_path_, state);
  }

  // Maps the frontend's ring page `ref` into `map`: the shared ring on it,
  // or null when the map fails or the page holds no such ring.
  template <typename SharedRing>
  SharedRing* MapRing(int64_t ref, MappedGrant* map) {
    *map = hv_->GrantMap(backend_, frontend_dom_, static_cast<GrantRef>(ref),
                         /*write_access=*/true);
    return map->valid() ? map->page()->As<SharedRing>() : nullptr;
  }

  // Binds the frontend's published port to WakeThreads.
  bool BindPort(int64_t remote_port) {
    port_ = hv_->EventBindInterdomain(backend_, frontend_dom_, static_cast<EvtPort>(remote_port));
    if (port_ == kInvalidPort) {
      return false;
    }
    hv_->EventSetHandler(backend_, port_, [this] { WakeThreads(); });
    return true;
  }

  void SpawnThread(const std::function<Task()>& body) {
    ++threads_running_;
    sched_->Spawn(body);
  }

  // Every worker thread calls this as it returns.
  void ThreadExited() {
    if (--threads_running_ == 0 && on_drained_) {
      on_drained_();
    }
  }

  // Marks the instance connected and registers its watchdog sampler.
  void MarkConnected(HealthMonitor::Sampler sample) {
    connected_ = true;
    health_id_ = hv_->health().Register(backend_->id(), backend_->name(), name_, devid_,
                                        std::move(sample));
  }

  // The awaitable of SleepAfterWake: a BMK sleep that does not suspend at all
  // when its delay is zero.
  class WakeDelay {
   public:
    WakeDelay(BmkSched* sched, SimDuration delay)
        : timer_(sched, sched->executor()->Now() + delay), skip_(delay <= SimDuration(0)) {}
    bool await_ready() const noexcept { return skip_; }
    void await_suspend(std::coroutine_handle<> handle) { timer_.await_suspend(handle); }
    void await_resume() const noexcept {}

   private:
    BmkSched::TimedAwaiter timer_;
    bool skip_;
  };

  // co_await in a worker thread that a wakeup just resumed: sleeps the OS
  // pass latency, plus a cold-path penalty after an idle spell.
  WakeDelay SleepAfterWake(SimDuration pass_latency, SimTime* last_active) const {
    const SimTime now = sched_->executor()->Now();
    if (now - *last_active > costs_->cold_threshold) {
      pass_latency += costs_->cold_penalty;
    }
    *last_active = now;
    return WakeDelay(sched_, pass_latency);
  }

  // Every consumed request has a response, and every response is pushed.
  template <typename BackRing>
  static bool AllAnswered(const BackRing& ring) {
    return ring.rsp_prod_pvt() == ring.req_cons() && ring.unpushed_responses() == 0;
  }

  // The ring-quiescence audit: every published request consumed (skipped
  // when `requests_may_wait`: posted Rx buffers legitimately sit unused),
  // then AllAnswered. On false, `detail` (if non-null) names the leg.
  template <typename BackRing>
  bool AuditRing(const BackRing& ring, const char* ring_name, bool requests_may_wait,
                 std::string* detail) const {
    std::string leg;
    if (!requests_may_wait && ring.UnconsumedRequests() != 0) {
      leg = StrFormat("%u unconsumed request(s)", ring.UnconsumedRequests());
    } else if (ring.rsp_prod_pvt() != ring.req_cons()) {
      leg = StrFormat("consumed %u request(s) but produced %u response(s)", ring.req_cons(),
                      ring.rsp_prod_pvt());
    } else if (ring.unpushed_responses() != 0) {
      leg = StrFormat("%u unpushed response(s)", ring.unpushed_responses());
    } else {
      return true;
    }
    if (detail != nullptr) {
      *detail = StrFormat("%s %s ring: %s", name_.c_str(), ring_name, leg.c_str());
    }
    return false;
  }

  Domain* const backend_;
  Hypervisor* const hv_;
  BmkSched* const sched_;
  const OsCostProfile* const costs_;
  const DomId frontend_dom_;
  const int devid_;
  // <type><frontend>.<devid> ("vif3.0", "vbd3.51712"): the registry device
  // and the watchdog row.
  const std::string name_;
  // The instance's registry rows, watchdog gauges included. They fold into
  // (driver domain, "<type>-retired") once no instance of this device is
  // left, so a successor created while this one drains shares them.
  const MetricRegistry::Owner rows_;
  const std::string backend_path_;
  const std::string frontend_path_;
  bool connected_ = false;
  // Drain protocol: the worker threads stop consuming new requests.
  bool draining_ = false;
  // Shutdown protocol: checked by the worker threads after every co_await.
  bool stopping_ = false;
  EvtPort port_ = kInvalidPort;

 private:
  void UnregisterHealth() {
    if (health_id_ != 0) {
      hv_->health().Unregister(health_id_);
      health_id_ = 0;
    }
  }

  int threads_running_ = 0;
  std::function<void()> on_drained_;
  // Watchdog registration (0 = never registered / already unregistered).
  int64_t health_id_ = 0;
};

template <typename Instance>
class XenbusBackend {
 public:
  // Builds the instance for one device node, on the vCPU chosen for it.
  using Factory =
      std::function<std::unique_ptr<Instance>(BmkSched*, DomId frontend_dom, int devid)>;
  using Hook = std::function<void(Instance*)>;

  // One scheduler per driver-domain vCPU; instances are sharded round-robin
  // across them (paper §3.1: "several NICs for better I/O scaling since Kite
  // supports multiple cores"). The xenwatch thread runs on the first.
  XenbusBackend(Domain* backend, std::vector<BmkSched*> scheds, Factory factory)
      : backend_(backend),
        hv_(backend->hypervisor()),
        scheds_(std::move(scheds)),
        factory_(std::move(factory)),
        root_(StrFormat("/local/domain/%d/backend/%s", backend->id(), Instance::kType)),
        watch_wake_(scheds_.front()) {
    const std::string type = Instance::kType;
    MetricRegistry* reg = &hv_->metrics();
    scans_ = reg->counter(backend->name(), type + "-driver", "scans");
    connect_retries_ = reg->counter(backend->name(), type + "-driver", "connect_retries");
    instances_reaped_ = reg->counter(backend->name(), type + "-driver", "instances_reaped");
    instances_retired_ = reg->counter(backend->name(), type + "-driver", "instances_retired");
    watch_ = backend_->StoreWatch(root_, type + "-backend",
                                  [this](const std::string& path, const std::string&) {
                                    OnRootEvent(path);
                                  });
    scheds_.front()->Spawn([this] { return WatchThread(); });
  }

  ~XenbusBackend() {
    *alive_ = false;
    hv_->store().RemoveWatch(watch_);
    for (const auto& [key, dev] : devices_) {
      if (dev.fe_watch != 0) {
        hv_->store().RemoveWatch(dev.fe_watch);
      }
    }
  }

  // Watch callbacks and the xenwatch thread hold `this`.
  XenbusBackend(const XenbusBackend&) = delete;
  XenbusBackend& operator=(const XenbusBackend&) = delete;

  // The driver domain's application (paper §4.3). OnNew runs once an
  // instance connects, to hotplug it (bridge the vif, record the vbd);
  // OnGone runs before a reaped or retired instance's pointer dies.
  void SetOnNew(Hook fn) { on_new_ = std::move(fn); }
  void SetOnGone(Hook fn) { on_gone_ = std::move(fn); }

  int instance_count() const { return static_cast<int>(devices_.size()); }
  // Reaped or retired instances still draining their worker threads.
  int dying_instance_count() const { return static_cast<int>(dying_.size()); }
  Instance* instance(DomId frontend_dom, int devid) const {
    auto it = devices_.find({frontend_dom, devid});
    return it == devices_.end() ? nullptr : it->second.inst.get();
  }
  // A live or a reaped-but-draining instance of the device exists.
  bool has_instance(DomId frontend_dom, int devid) const {
    return instance(frontend_dom, devid) != nullptr ||
           std::any_of(dying_.begin(), dying_.end(), [&](const auto& inst) {
             return inst->frontend_dom() == frontend_dom && inst->devid() == devid;
           });
  }
  // Live instances in deterministic (frontend, devid) order (checker).
  std::vector<Instance*> live_instances() const {
    std::vector<Instance*> out;
    out.reserve(devices_.size());
    for (const auto& [key, dev] : devices_) {
      out.push_back(dev.inst.get());
    }
    return out;
  }

  uint64_t connect_retries() const { return connect_retries_->value(); }
  uint64_t instances_reaped() const { return instances_reaped_->value(); }
  // Frontend-state watches held for instances still waiting for their
  // frontend to publish, and for connected ones (leak accounting: each
  // instance holds at most one, and reaping drops it).
  int pending_fe_watch_count() const { return CountFeWatches(/*connected=*/false); }
  int paired_fe_watch_count() const { return CountFeWatches(/*connected=*/true); }

 private:
  using Key = std::pair<DomId, int>;  // (frontend domain, devid).
  // xenstore lists children in byte order ("10" before "9"); the keys one
  // wake visits follow it, so instances are created, and sharded across the
  // vCPUs, in the order a listing of backend/<type> would find them.
  // Keys are never negative: both halves come from parsed decimal paths.
  struct ListingOrder {
    bool operator()(const Key& a, const Key& b) const {
      const int fe = CompareDecimalText(static_cast<uint32_t>(a.first),
                                        static_cast<uint32_t>(b.first));
      return fe != 0 ? fe < 0
                     : CompareDecimalText(static_cast<uint32_t>(a.second),
                                          static_cast<uint32_t>(b.second)) < 0;
    }
  };
  // The devices one wake visits. True: the key came from the root listing,
  // so its node is known to exist; false: an event named it.
  using Visits = std::map<Key, bool, ListingOrder>;
  struct Device {
    std::unique_ptr<Instance> inst;
    // Watch on the frontend's state node, naming this device: before pairing
    // it fires when the frontend publishes, after pairing when the frontend
    // closes or its domain is destroyed.
    WatchId fe_watch = 0;
  };

  Task WatchThread() {
    for (;;) {
      co_await watch_wake_.Wait();
      co_await scheds_.front()->Run(Micros(5), KITE_CPU_CATEGORY("driver/xenwatch"));
      Scan();
    }
  }

  // One wake: sweeps the graveyard, reaps, drives drains, then visits the
  // devices the wake's events named (all of backend/<type> after the root
  // watch's registration fire).
  void Scan() {
    scans_->Inc();
    std::erase_if(dying_, [](const std::unique_ptr<Instance>& inst) { return inst->drained(); });
    Visits visits;
    visits.swap(named_);
    ReapDeadInstances(visits);
    ProcessDrains();
    if (list_root_ && ListRoot(&visits)) {
      list_root_ = false;
    }
    XenbusClient bus(&hv_->store(), backend_->id());
    for (const auto& [key, listed] : visits) {
      Visit(key, listed, bus);
    }
  }

  // Advertises a named device's new instance and pairs it once its frontend
  // is Initialised.
  void Visit(const Key& key, bool listed, const XenbusClient& bus) {
    // A node marked offline is mid-drain/retire: never advertise or pair
    // against it — the frontend republishing now is relinking elsewhere.
    // (offline_ was refreshed by ProcessDrains; no xenstore read.)
    if (offline_.count(key) != 0) {
      return;
    }
    auto it = devices_.find(key);
    if (it == devices_.end()) {
      if (!listed && !Probe(key)) {
        return;
      }
      BmkSched* sched = scheds_[next_sched_++ % scheds_.size()];
      it = devices_.emplace(key, Device{factory_(sched, key.first, key.second)}).first;
      it->second.inst->Advertise();
    }
    Device& dev = it->second;
    if (dev.inst->connected()) {
      return;
    }
    const std::string fe_path = FrontendPath(key.first, Instance::kType, key.second);
    if (bus.ReadState(fe_path) != XenbusState::kInitialised) {
      if (dev.fe_watch == 0) {
        dev.fe_watch = WatchFrontend(key, fe_path, "fe-state");
      }
      return;
    }
    if (!dev.inst->Connect()) {
      // Transient by assumption (e.g. an injected grant-map failure): stay
      // in InitWait and revisit shortly; the frontend watch alone won't fire
      // again.
      connect_retries_->Inc();
      KITE_LOG(Warning) << Instance::kName << ": failed to connect " << fe_path
                        << ", retrying";
      Retry(KeyWaker(key));
      return;
    }
    if (dev.fe_watch != 0) {
      hv_->store().RemoveWatch(dev.fe_watch);
    }
    dev.fe_watch = WatchFrontend(key, fe_path, "fe-gone");
    if (on_new_) {
      on_new_(dev.inst.get());
    }
  }

  // The one charged op a named device without an instance costs: does its
  // node exist? A read that fails on a node that is there (an injected
  // fault) keeps the key for the 1 ms retry; a missing node (a removed
  // device) drops it.
  bool Probe(const Key& key) {
    const std::string node = NodePath(key);
    if (backend_->StoreRead(node).has_value()) {
      return true;
    }
    if (hv_->store().Exists(node)) {
      Retry(KeyWaker(key));
    }
    return false;
  }

  // Adds every device under backend/<type> to `visits`: how a booted or
  // restarted driver domain finds the devices that already exist. False when
  // a listing failed on a directory that is there; the whole listing then
  // reruns on the 1 ms retry.
  bool ListRoot(Visits* visits) {
    auto fdoms = backend_->StoreList(root_);
    if (!fdoms.has_value()) {
      return FailedOnMissing(root_);
    }
    bool complete = true;
    for (const std::string& fdom_str : *fdoms) {
      const int64_t fdom = ParseDecimal(fdom_str);
      if (fdom < 0) {
        continue;
      }
      const std::string fe_dir = root_ + "/" + fdom_str;
      auto devids = backend_->StoreList(fe_dir);
      if (!devids.has_value()) {
        complete = FailedOnMissing(fe_dir) && complete;
        continue;
      }
      for (const std::string& devid_str : *devids) {
        const int64_t devid = ParseDecimal(devid_str);
        if (devid >= 0) {
          (*visits)[{static_cast<DomId>(fdom), static_cast<int>(devid)}] = true;
        }
      }
    }
    return complete;
  }

  // After a failed listing: true when `path` is simply gone; otherwise the
  // read failed (an injected fault) and a retry is posted.
  bool FailedOnMissing(const std::string& path) {
    if (!hv_->store().Exists(path)) {
      return true;
    }
    Retry(Waker());
    return false;
  }

  // Tears down paired instances whose frontend reached Closing/Closed, and
  // any instance whose frontend domain was destroyed. Only a device the wake
  // named can have a new frontend state, so only those are read (uncharged,
  // and only when paired); for every other instance the uncharged liveness
  // test of its frontend domain is the whole check, which also covers a
  // frontend that never wrote a state node for its watch to see removed. An
  // unpaired instance outlives a Closed frontend: a relinking frontend shows
  // the Closed its dead backend left until its relink watch fires (Linux
  // netback likewise keeps an online device when its frontend closes).
  void ReapDeadInstances(const Visits& visits) {
    XenbusClient bus(&hv_->store(), backend_->id());
    for (auto it = devices_.begin(); it != devices_.end();) {
      const Key key = it->first;
      bool dead = hv_->domain(key.first) == nullptr;
      if (!dead && it->second.inst->connected() && visits.count(key) != 0) {
        const XenbusState state =
            bus.ReadState(FrontendPath(key.first, Instance::kType, key.second));
        dead = state == XenbusState::kClosing || state == XenbusState::kClosed;
      }
      if (!dead) {
        ++it;
        continue;
      }
      std::unique_ptr<Instance> inst = Detach(it++);
      // Drop the backend's device node so no later listing finds the corpse.
      RemoveNode(key);
      inst->BeginShutdown();
      Bury(std::move(inst), FlightKind::kInstanceReaped, key);
      instances_reaped_->Inc();
    }
  }

  // Drives the graceful drain handshake for instances whose backend node
  // carries online = 0 (set by the toolstack before a migration).
  void ProcessDrains() {
    for (const Key& key : online_dirty_) {
      auto online = backend_->StoreReadInt(NodePath(key) + "/online");
      if (online.has_value() && *online == 0) {
        offline_.insert(key);
      } else {
        offline_.erase(key);  // Rewritten to 1, or the node is gone.
      }
    }
    online_dirty_.clear();
    if (offline_.empty()) {
      return;
    }
    bool pending = false;
    for (auto it = devices_.begin(); it != devices_.end();) {
      const Key key = it->first;
      if (offline_.count(key) == 0) {
        ++it;
        continue;
      }
      Instance* inst = it->second.inst.get();
      inst->RequestDrain();
      if (!inst->ReadyToRetire()) {
        pending = true;
        ++it;
        continue;
      }
      std::unique_ptr<Instance> owned = Detach(it++);
      // Mappings must be released before the node goes away (the frontend's
      // relink path EndAccesses its grants once the node vanishes).
      owned->RetireGracefully();
      RemoveNode(key);
      Bury(std::move(owned), FlightKind::kInstanceRetired, key);
      instances_retired_->Inc();
    }
    if (pending) {
      // Drain in progress: re-poll shortly (the worker threads make progress
      // on simulated time, not on watch events).
      hv_->executor()->PostAfter(Micros(50), KITE_POST_SITE("xenbus/drain-poll"), Waker());
    }
  }

  // The root watch: its registration fire (the root itself) asks for a full
  // listing; a path under a device's node names that device, and a write to
  // its online key also marks it for ProcessDrains, so the no-migration path
  // reads no online key (polling every node showed up as a fig11 tax). An
  // event naming only backend/<type>/<fe> (the directory cleanup after a
  // reap) names no device and wakes nothing.
  void OnRootEvent(const std::string& path) {
    Key key;
    std::string_view leaf;
    if (path == root_) {
      list_root_ = true;
    } else if (ParseDevicePath(path, &key, &leaf)) {
      named_.emplace(key, false);
      if (leaf == "online") {
        online_dirty_.insert(key);
      }
    } else {
      return;
    }
    watch_wake_.Signal();
  }

  // Splits root_/<fe>/<devid>[/<leaf>] into the device's key and the rest
  // of the path below its node ("" for the node itself).
  bool ParseDevicePath(std::string_view path, Key* key, std::string_view* leaf) const {
    if (path.size() <= root_.size() + 1 || path.substr(0, root_.size()) != root_ ||
        path[root_.size()] != '/') {
      return false;
    }
    const std::string_view rest = path.substr(root_.size() + 1);
    const size_t a = rest.find('/');
    if (a == std::string_view::npos) {
      return false;  // backend/<type>/<fe> alone.
    }
    const size_t b = std::min(rest.find('/', a + 1), rest.size());
    const int64_t fdom = ParseDecimal(rest.substr(0, a));
    const int64_t devid = ParseDecimal(rest.substr(a + 1, b - a - 1));
    if (fdom < 0 || devid < 0) {
      return false;
    }
    *key = {static_cast<DomId>(fdom), static_cast<int>(devid)};
    *leaf = b < rest.size() ? rest.substr(b + 1) : std::string_view();
    return true;
  }

  // Removes a device's instance from the live set: drops its frontend watch,
  // lets the application forget it, and has its drain prompt a graveyard
  // sweep. The caller shuts it down.
  std::unique_ptr<Instance> Detach(typename std::map<Key, Device>::iterator it) {
    const Key key = it->first;
    Device dev = std::move(it->second);
    devices_.erase(it);
    if (dev.fe_watch != 0) {
      hv_->store().RemoveWatch(dev.fe_watch);
    }
    if (on_gone_) {
      on_gone_(dev.inst.get());
    }
    offline_.erase(key);
    dev.inst->set_on_drained(Waker());
    return std::move(dev.inst);
  }

  // Records the reap or retire in the flight recorder (its one record) and
  // keeps the shut-down instance until its threads exit.
  void Bury(std::unique_ptr<Instance> inst, FlightKind kind, const Key& key) {
    hv_->recorder().Record(backend_->id(), kind, key.second, static_cast<uint64_t>(key.first));
    if (!inst->drained()) {
      dying_.push_back(std::move(inst));
    }
  }

  // Removes a device's node, uncharged like the toolstack's own cleanup,
  // then its frontend's backend/<type>/<fe> directory once no device is left
  // in it, as libxl's libxl__xs_path_cleanup does: otherwise the empty
  // directory outlives its guest. backend/<type> stays: it is the root this
  // driver watches.
  void RemoveNode(const Key& key) {
    XenStore& store = hv_->store();
    store.RemoveSubtree(kDom0, NodePath(key));
    const std::string fe_dir = StrFormat("%s/%d", root_.c_str(), key.first);
    if (auto left = store.List(kDom0, fe_dir); left.has_value() && left->empty()) {
      store.Remove(kDom0, fe_dir);
    }
  }

  WatchId WatchFrontend(const Key& key, const std::string& fe_path, const char* token) {
    return backend_->StoreWatch(fe_path + "/state", token,
                                [this, key](const std::string&, const std::string&) {
                                  named_.emplace(key, false);
                                  watch_wake_.Signal();
                                });
  }

  // A deferred wake that names no device (graveyard sweeps, drain polls); a
  // no-op once this driver is gone.
  auto Waker() {
    return [this, alive = alive_] {
      if (*alive) {
        watch_wake_.Signal();
      }
    };
  }

  // A deferred wake that visits `key` again.
  auto KeyWaker(const Key& key) {
    return [this, alive = alive_, key] {
      if (*alive) {
        named_.emplace(key, false);
        watch_wake_.Signal();
      }
    };
  }

  // The 1 ms retry of a failed connect, probe or listing.
  template <typename Fn>
  void Retry(Fn wake) {
    hv_->executor()->PostAfter(Millis(1), KITE_POST_SITE("xenbus/connect-retry"),
                               std::move(wake));
  }

  int CountFeWatches(bool connected) const {
    return static_cast<int>(
        std::count_if(devices_.begin(), devices_.end(), [connected](const auto& entry) {
          return entry.second.fe_watch != 0 && entry.second.inst->connected() == connected;
        }));
  }

  std::string NodePath(const Key& key) const {
    return BackendPath(backend_->id(), Instance::kType, key.first, key.second);
  }

  Domain* backend_;
  Hypervisor* hv_;
  std::vector<BmkSched*> scheds_;
  Factory factory_;
  const std::string root_;  // .../backend/<type>
  Hook on_new_;
  Hook on_gone_;
  size_t next_sched_ = 0;

  WatchId watch_ = 0;
  WakeFlag watch_wake_;
  std::map<Key, Device> devices_;
  // Devices the watch events, retries and frontend watches named since the
  // last wake; the next wake visits only these.
  Visits named_;
  // The root watch's registration fire, or a listing that failed: the next
  // wake also visits every device under backend/<type>.
  bool list_root_ = false;
  // Nodes whose online key the toolstack touched since the last scan
  // (paths carried by the root watch); read — and charged — only for these.
  std::set<Key> online_dirty_;
  // Nodes currently marked online = 0: mid-drain/retire.
  std::set<Key> offline_;
  // Reaped or retired but not yet drained (worker frames still parked in the
  // shared scheduler); swept on scan wakeups.
  std::vector<std::unique_ptr<Instance>> dying_;
  Counter* scans_;
  Counter* connect_retries_;
  Counter* instances_reaped_;
  Counter* instances_retired_;
  // Outlives `this` so posted wakes can detect destruction.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace kite

#endif  // SRC_HV_XENBUS_BACKEND_H_
