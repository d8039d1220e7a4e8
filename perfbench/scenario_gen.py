"""Seeded schema-1 scenario generator for the ``monitor-churn`` workload.

The generator keeps a shadow model of the world it is scripting (free host
granules, live realms, their shared regions, consumer windows and leftover
private pages) and emits only commands that are valid in the state they
run in, each with the expectation the model predicts: ``"ok"`` or
``"fault"``. It never reads the simulated world; the program under test
receives only the finished document, which ``harness.parse_scenario``
accepts. The same seed yields a byte-identical document.

The script is a control-plane mix of the seven shared-region commands with
cooperative populate and reclaim, host reclaim of pages left behind by
destroyed regions, periodic realm teardown and attested re-creation, and a
small share of data accesses: realm reads and writes at random offsets,
writes through read-only windows that must fault, and host probes of realm
memory that must fault. A *prefix* builds the world (realm creation,
measured images, activation, attestation, warm-up churn); the benchmark
counts the prefix as set-up and times the rest.

The shadow model mirrors the cooperative host's lowest-index-first granule
allocation, which is what lets it name granules in host commands.
"""

import heapq
import json
import random
from dataclasses import dataclass, field

GRANULE_SIZE = 4096
IPA_WIDTH = 20
# The protected half of a 20-bit address space is 128 pages. Page 0 and 1
# hold the measured image; the rest is cut into slots of four pages, each
# holding at most one region, window, or set of leftover pages.
SLOT_PAGES = 4
SLOT_BYTES = SLOT_PAGES * GRANULE_SIZE
SLOTS = range(1, (1 << (IPA_WIDTH - 1)) // SLOT_BYTES)
IMAGE_IPAS = (0x0, 0x1000)
# Regions a realm provides at once; bounds the granules live regions hold.
MAX_REGIONS = 3
# Free granules kept back so a torn-down realm can always be rebuilt.
POOL_MARGIN = 64


@dataclass
class Share:
    sid: str                  # bind name of the sharing id
    region: "Region"
    consumer: "Realm"
    perm: str
    window: "Window | None" = None


@dataclass
class Region:
    csm: str                  # bind name of the region id
    owner: "Realm"
    slot: int
    pages: list               # granule per page, in address order
    shares: dict = field(default_factory=dict)   # consumer alias -> Share


@dataclass
class Window:
    share: Share
    slot: int
    attached: bool = False


@dataclass
class Realm:
    alias: str
    rd: int
    meta: list                # policy table, execution context, table granule
    image: dict               # ipa -> granule of the measured image
    regions: dict = field(default_factory=dict)  # slot -> Region
    windows: dict = field(default_factory=dict)  # slot -> Window
    stale: dict = field(default_factory=dict)    # slot -> pages of a destroyed region
    live: bool = True

    def free_slots(self) -> list:
        return [s for s in SLOTS if s not in self.regions
                and s not in self.windows and s not in self.stale]


def _hex(text: str) -> str:
    return text.encode().hex()


class Shadow:
    """The generator's model of the world, plus the step list it emits."""

    def __init__(self, granules: int, rng: random.Random):
        self.rng = rng
        self.free = list(range(granules))   # heap of undelegated granules
        self.realms: list[Realm] = []
        self.steps: list[dict] = []
        self.names = 0
        self.attached_pages = 0   # pages mapped through attached windows

    def name(self, prefix: str) -> str:
        self.names += 1
        return f"{prefix}{self.names}"

    def alloc(self) -> int:
        return heapq.heappop(self.free)

    def give_back(self, granules) -> None:
        for g in granules:
            heapq.heappush(self.free, g)

    def emit(self, actor: str, op: str, args: dict, expect="ok",
             bind: str | None = None) -> None:
        step = {"actor": actor, "op": op, "args": args}
        if expect != "ok":
            step["expect"] = expect
        if bind is not None:
            step["bind"] = bind
        self.steps.append(step)

    def live_realms(self) -> list:
        return [r for r in self.realms if r.live]

    # ------------------------------------------------------- realm lifecycle

    def build_realm(self) -> Realm:
        alias = self.name("r")
        rd = self.alloc()
        self.emit("host", "granule_delegate", {"granule": rd})
        self.emit("host", "rmi_realm_create", {"rd": rd, "ipa_width": IPA_WIDTH},
                  bind=alias)
        meta = []
        for op, extra in (("rmi_apt_create", {}), ("rmi_rec_create", {}),
                          ("rmi_rtt_create", {"ipa": 0})):
            g = self.alloc()
            meta.append(g)
            self.emit("host", "granule_delegate", {"granule": g})
            self.emit("host", op, {"rd": rd, "granule": g, **extra})
        image, contents = {}, []
        for k, ipa in enumerate(IMAGE_IPAS):
            g = self.alloc()
            content = _hex(f"image/{alias}/{k}/{self.rng.getrandbits(32):08x}")
            image[ipa] = g
            contents.append([ipa, content])
            self.emit("host", "granule_delegate", {"granule": g})
            self.emit("host", "rmi_data_create",
                      {"rd": rd, "granule": g, "ipa": ipa, "content": content})
        self.emit("host", "rmi_realm_activate", {"rd": rd})
        realm = Realm(alias=alias, rd=rd, meta=meta, image=image)
        verifiers = self.live_realms()
        self.realms.append(realm)
        if verifiers:
            self.attest(self.rng.choice(verifiers), realm, contents)
        return realm

    def attest(self, verifier: Realm, peer: Realm, image: list) -> None:
        """The verifier's owner checks the peer's token and releases its id."""
        token, exp = self.name("tok"), self.name("exp")
        owner = f"owner:{verifier.alias}"
        self.emit(f"realm:{peer.alias}", "rsi_attestation_token", {}, bind=token)
        self.emit(owner, "owner_compute_expectation",
                  {"image": image, "ipa_width": IPA_WIDTH}, bind=exp)
        self.emit(owner, "verify_token",
                  {"token": f"@{token}", "expectation": f"@{exp}"},
                  expect={"ok": {"valid": True}})
        self.emit(owner, "owner_release_peer_id",
                  {"token": f"@{token}", "expectation": f"@{exp}"})

    def teardown(self, realm: Realm) -> None:
        """Destroy a realm, undelegate everything it owned, build a new one."""
        self.emit("host", "rmi_realm_destroy", {"rd": realm.rd})
        owned = [realm.rd, *realm.meta, *realm.image.values()]
        for region in realm.regions.values():
            owned += region.pages
            for share in region.shares.values():
                if share.window is not None:
                    self._drop_window(share.window)
        for pages in realm.stale.values():
            owned += pages
        for window in list(realm.windows.values()):
            self._drop_window(window)
        realm.live = False
        realm.regions, realm.windows, realm.stale = {}, {}, {}
        for g in sorted(owned):
            self.emit("host", "granule_undelegate", {"granule": g})
        self.give_back(owned)
        self.realms = self.live_realms()
        self.build_realm()

    # ------------------------------------------------------- shared regions

    def create(self, realm: Realm, size: int) -> Region:
        slot = self.rng.choice(realm.free_slots())
        csm = self.name("csm")
        self.emit(f"realm:{realm.alias}", "rsi_csm_create",
                  {"base": slot * SLOT_BYTES, "size": size}, bind=csm)
        # The cooperative host populates the range lowest granule first.
        region = Region(csm=csm, owner=realm, slot=slot,
                        pages=[self.alloc() for _ in range(size)])
        realm.regions[slot] = region
        return region

    def share(self, region: Region, consumer: Realm, perm: str) -> Share:
        sid = self.name("sid")
        self.emit(f"realm:{region.owner.alias}", "rsi_csm_share",
                  {"csm": f"@{region.csm}", "c_id": f"@{consumer.alias}",
                   "perm": perm}, bind=sid)
        share = Share(sid=sid, region=region, consumer=consumer, perm=perm)
        region.shares[consumer.alias] = share
        return share

    def reserve(self, share: Share, slot: int) -> Window:
        consumer = share.consumer
        size = len(share.region.pages)
        self.emit(f"realm:{consumer.alias}", "rsi_csm_reserve",
                  {"sharing": f"@{share.sid}", "base": slot * SLOT_BYTES,
                   "size": size})
        # Pages left by a destroyed region inside the window are reclaimed
        # by the host as part of servicing the reservation.
        self.give_back(consumer.stale.pop(slot, []))
        window = Window(share=share, slot=slot)
        consumer.windows[slot] = window
        share.window = window
        return window

    def attach(self, window: Window) -> None:
        self.emit(f"realm:{window.share.consumer.alias}", "rsi_csm_attach",
                  {"sharing": f"@{window.share.sid}"})
        window.attached = True
        self.attached_pages += len(window.share.region.pages)

    def _drop_window(self, window: Window) -> None:
        del window.share.consumer.windows[window.slot]
        window.share.window = None
        if window.attached:
            self.attached_pages -= len(window.share.region.pages)

    def revoke(self, share: Share) -> None:
        self.emit(f"realm:{share.region.owner.alias}", "rsi_csm_revoke",
                  {"sharing": f"@{share.sid}"})
        self._drop_share(share)

    def _drop_share(self, share: Share) -> None:
        if share.window is not None:
            self._drop_window(share.window)
        del share.region.shares[share.consumer.alias]

    def destroy(self, region: Region) -> None:
        owner = region.owner
        self.emit(f"realm:{owner.alias}", "rsi_csm_destroy",
                  {"csm": f"@{region.csm}"})
        for share in list(region.shares.values()):
            self._drop_share(share)
        del owner.regions[region.slot]
        owner.stale[region.slot] = region.pages

    def detach(self, window: Window) -> None:
        share = window.share
        self.emit(f"realm:{share.consumer.alias}", "rsi_csm_detach_and_free",
                  {"sharing": f"@{share.sid}"})
        self._drop_window(window)

    def reclaim(self, realm: Realm, slot: int) -> None:
        """Host takes back the pages a destroyed region left behind."""
        pages = realm.stale.pop(slot)
        for k, g in enumerate(pages):
            self.emit("host", "rmi_data_destroy",
                      {"rd": realm.rd, "ipa": slot * SLOT_BYTES + k * GRANULE_SIZE},
                      expect={"ok": g})
            self.emit("host", "granule_undelegate", {"granule": g})
        self.give_back(pages)

    # ------------------------------------------------------------- accesses

    def targets(self, realm: Realm) -> list:
        """(ipa, writable, granule) for every page the realm can reach."""
        out = [(ipa, True, g) for ipa, g in realm.image.items()]
        for region in realm.regions.values():
            base = region.slot * SLOT_BYTES
            out += [(base + k * GRANULE_SIZE, True, g)
                    for k, g in enumerate(region.pages)]
        for slot, pages in realm.stale.items():
            out += [(slot * SLOT_BYTES + k * GRANULE_SIZE, True, g)
                    for k, g in enumerate(pages)]
        for window in realm.windows.values():
            if window.attached:
                base = window.slot * SLOT_BYTES
                out += [(base + k * GRANULE_SIZE, window.share.perm == "rw", g)
                        for k, g in enumerate(window.share.region.pages)]
        return out

    def access(self, realm: Realm, write: bool, allow_fault: bool) -> None:
        """One realm read or write at a random offset, 256 B to 4 KiB."""
        targets = self.targets(realm)
        if write and not allow_fault:
            targets = [t for t in targets if t[1]]
        ipa, writable, _ = self.rng.choice(targets)
        length = self.rng.randint(256, GRANULE_SIZE)
        offset = self.rng.randint(0, GRANULE_SIZE - length)
        actor = f"realm:{realm.alias}"
        if write:
            data = self.rng.randbytes(length).hex()
            self.emit(actor, "realm_access",
                      {"ipa": ipa, "kind": "write", "offset": offset, "data": data},
                      expect="ok" if writable else "fault")
        else:
            self.emit(actor, "realm_access",
                      {"ipa": ipa, "kind": "read", "offset": offset,
                       "length": length})

    def probe(self) -> None:
        """Host read of a realm data granule; the access check must fault."""
        realm = self.rng.choice(self.live_realms())
        _, _, granule = self.rng.choice(self.targets(realm))
        self.emit("host", "physical_access",
                  {"granule": granule, "kind": "read", "length": 64},
                  expect="fault")


# --------------------------------------------------------------- churn mix

# Churn steps run as set-up; the live-region count reaches its cap of
# MAX_REGIONS per realm in about this many steps.
CHURN_WARMUP = 2000
# Attach only below, and detach only at or above, this many pages per live
# realm mapped through attached windows. The invariant checker's cost
# follows this count, so holding it steady keeps one seed's step cost close
# to another's.
ATTACHED_PER_REALM = 2
# Relative weights of the control-plane actions; an action is drawn only
# from those whose preconditions hold in the current model state.
CHURN_WEIGHTS = {"create": 14, "share": 16, "reserve": 14, "attach": 14,
                 "revoke": 5, "destroy": 6, "detach": 7, "reclaim": 6,
                 "teardown": 2, "access": 8, "probe": 1}


def _churn_action(model: Shadow, action: str) -> bool:
    """Emit one action if its preconditions hold; False when none apply."""
    rng = model.rng
    realms = model.live_realms()
    target = ATTACHED_PER_REALM * len(realms)
    if action == "create":
        pool_ok = len(model.free) >= SLOT_PAGES + POOL_MARGIN
        owners = [r for r in realms if len(r.regions) < MAX_REGIONS
                  and r.free_slots()]
        if not (pool_ok and owners):
            return False
        model.create(rng.choice(owners), rng.randint(1, SLOT_PAGES))
    elif action == "share":
        pairs = [(region, c) for r in realms for region in r.regions.values()
                 for c in realms if c is not r and c.alias not in region.shares]
        if not pairs:
            return False
        region, consumer = rng.choice(pairs)
        model.share(region, consumer, rng.choice(("ro", "rw")))
    elif action == "reserve":
        options = []
        for r in realms:
            for region in r.regions.values():
                for share in region.shares.values():
                    c = share.consumer
                    if not c.live or share.window is not None:
                        continue
                    slots = c.free_slots() + [
                        s for s, pages in c.stale.items()
                        if len(pages) <= len(region.pages)]
                    if slots:
                        options.append((share, slots))
        if not options:
            return False
        share, slots = rng.choice(options)
        model.reserve(share, rng.choice(sorted(slots)))
    elif action == "attach":
        windows = [w for r in realms for w in r.windows.values() if not w.attached]
        if not windows or model.attached_pages >= target:
            return False
        model.attach(rng.choice(windows))
    elif action == "revoke":
        shares = [s for r in realms for region in r.regions.values()
                  for s in region.shares.values()]
        if not shares:
            return False
        model.revoke(rng.choice(shares))
    elif action == "destroy":
        regions = [g for r in realms for g in r.regions.values()]
        if not regions:
            return False
        model.destroy(rng.choice(regions))
    elif action == "detach":
        windows = [w for r in realms for w in r.windows.values()]
        if not windows or model.attached_pages < target:
            return False
        model.detach(rng.choice(windows))
    elif action == "reclaim":
        stale = [(r, s) for r in realms for s in r.stale]
        if not stale:
            return False
        model.reclaim(*rng.choice(stale))
    elif action == "teardown":
        model.teardown(rng.choice(realms))
    elif action == "access":
        model.access(rng.choice(realms), write=rng.random() < 0.3,
                     allow_fault=rng.random() < 0.1)
    elif action == "probe":
        model.probe()
    return True


def _churn(model: Shadow, steps: int) -> None:
    names = list(CHURN_WEIGHTS)
    weights = list(CHURN_WEIGHTS.values())
    start = len(model.steps)
    while len(model.steps) - start < steps:
        while not _churn_action(model, model.rng.choices(names, weights)[0]):
            pass


def generate(seed: int, steps: int, granules: int = 4096,
             realms: int = 32) -> tuple[dict, int]:
    """Build a scenario document; returns (document, prefix step count).

    The prefix builds and attests the realms and ends with ``CHURN_WARMUP``
    steps of the mix, which bring the number of live regions up to its cap
    before timing starts, so the timed steps of every seed begin from a
    similar population. ``steps`` counts the timed steps after the prefix;
    the last action may overrun it by the few steps one action emits.
    """
    model = Shadow(granules, random.Random(f"churn/{seed}"))
    for _ in range(realms):
        model.build_realm()
    _churn(model, CHURN_WARMUP)
    prefix = len(model.steps)
    _churn(model, steps)
    doc = {"schema": 1, "name": f"perfbench-churn-{seed}", "seed": seed,
           "granules": granules, "policy": "cooperative", "steps": model.steps}
    return doc, prefix


def document_bytes(doc: dict) -> bytes:
    """Canonical serialization; equal seeds give equal bytes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
