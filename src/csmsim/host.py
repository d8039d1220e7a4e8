"""The hypervisor model: exit servicing and adversarial behaviors.

The host owns physical memory management. When the monitor raises a
shared-region exit, a cooperative host populates the provider's range
(delegate + map every unassigned granule, creating table backing first when
needed) or clears the consumer's window (destroy + undelegate every
resident), then re-enters the suspended vCPU so the pending call can
complete. All of that happens within one exit/re-entry round.

Non-cooperative policies model the attacks the design must survive: a host
that starves exits, populates the wrong ranges, probes realm memory
directly, double-maps granules, or swaps a realm behind a stable descriptor
address. None of these may ever grant or leak realm memory; at worst they
deny service, which the threat model accepts.
"""

from dataclasses import dataclass
from enum import Enum

from .csm import EXIT_C_REALM_CSM, EXIT_P_REALM_CSM, ipa_span
from .errors import BadState, Fault, OutOfGranules, SimError
from .granules import GRANULE_SIZE, GranuleState, PasTag, SecurityState


class HostPolicy(Enum):
    COOPERATIVE = "cooperative"
    STARVE = "starve"
    WRONG_GRANULE = "wrong_granule"
    PROBER = "prober"
    TOCTOU_SWAPPER = "toctou_swapper"
    DOUBLE_MAPPER = "double_mapper"


# The probe each adversarial policy runs in ``adversarial_step``: the
# method and the step arguments it takes, in order. Other policies have none.
PROBES = {
    HostPolicy.PROBER: ("_probe_all_granules", ()),
    HostPolicy.DOUBLE_MAPPER: ("_double_map", ("rd", "ipa")),
    HostPolicy.TOCTOU_SWAPPER: ("_swap_realm", ("rd",)),
}


@dataclass
class Host:
    """One hypervisor instance with a fixed behavior policy.

    Every policy except STARVE still services exits cooperatively (the
    adversarial behaviors are separate probes run via ``adversarial_step``),
    except WRONG_GRANULE which deliberately populates shifted ranges.
    """

    policy: HostPolicy = HostPolicy.COOPERATIVE

    def alloc_granule(self, world) -> int:
        """Lowest-index free granule; the host pool is exactly the
        undelegated granules."""
        index = world.granules.lowest_undelegated()
        if index is None:
            raise OutOfGranules("host pool exhausted")
        return index

    def _rmi(self, world, name: str, *args):
        """Issue one monitor command on behalf of the host, recording it."""
        try:
            result = getattr(world, name)(*args)
        except SimError as err:
            world.record({"event": "rmi", "op": name, "args": list(args),
                          "result": {"error": err.code}})
            raise
        world.record({"event": "rmi", "op": name, "args": list(args), "result": "ok"})
        return result

    def _ensure_backing(self, world, rd: int, ipa: int) -> None:
        realm = world.realm_at(rd)
        if world.block_of(ipa) not in realm.rtt.backed:
            g = self.alloc_granule(world)
            self._rmi(world, "granule_delegate", g)
            self._rmi(world, "rmi_rtt_create", rd, g, ipa)

    # ------------------------------------------------------------- exit work

    def handle_exit_p_csm(self, world, realm_id: int, base: int, size: int) -> None:
        """Populate every unassigned granule of a new provider region."""
        rd = world.registry.live[realm_id]
        span = ipa_span(base, size)
        if self.policy is HostPolicy.WRONG_GRANULE:
            # Deliberately populate the range after the requested one.
            span = ipa_span(base + size * GRANULE_SIZE, size)
        for ipa in span:
            if self._rmi(world, "rmi_rtt_read_entry", rd, ipa)["state"] == "assigned":
                continue
            try:
                self._ensure_backing(world, rd, ipa)
                g = self.alloc_granule(world)
                self._rmi(world, "granule_delegate", g)
                self._rmi(world, "rmi_data_create_unknown", rd, g, ipa)
            except SimError as err:
                world.record({"event": "host_failure", "op": "populate",
                              "ipa": ipa, "error": err.code})
                return

    def handle_exit_c_csm(self, world, realm_id: int, base: int, size: int) -> None:
        """Reclaim every resident granule of a reserved consumer window."""
        rd = world.registry.live[realm_id]
        for ipa in ipa_span(base, size):
            entry = self._rmi(world, "rmi_rtt_read_entry", rd, ipa)
            if entry["state"] != "assigned":
                continue
            try:
                pa = self._rmi(world, "rmi_data_destroy", rd, ipa)
                self._rmi(world, "granule_undelegate", pa)
            except SimError as err:
                world.record({"event": "host_failure", "op": "reclaim",
                              "ipa": ipa, "error": err.code})
                return
        # The consumer window needs table backing before attach can map it.
        try:
            for ipa in ipa_span(base, size):
                self._ensure_backing(world, rd, ipa)
        except SimError as err:
            world.record({"event": "host_failure", "op": "backing",
                          "ipa": base, "error": err.code})

    def service_round(self, world, exits: list[dict]) -> dict:
        """One exit/re-entry round over a batch of exits.

        Returns {realm_id: rec_enter result} for every realm re-entered.
        A starving host neither acts nor reschedules, so pending calls stay
        pending forever (an accepted denial of service). Region-removal
        exits need no host work.
        """
        if self.policy is HostPolicy.STARVE:
            return {}
        completions = {}
        for ex in exits:
            realm_id = ex["realm"]
            if ex["kind"] == EXIT_P_REALM_CSM:
                self.handle_exit_p_csm(world, realm_id, ex["ipa_base"], ex["size"])
            elif ex["kind"] == EXIT_C_REALM_CSM:
                self.handle_exit_c_csm(world, realm_id, ex["ipa_base"], ex["size"])
            else:
                continue
            if realm_id in world.registry.live:
                rd = world.registry.live[realm_id]
                completions[realm_id] = world.rec_enter(rd)
        return completions

    # -------------------------------------------------------------- probing

    def adversarial_step(self, world, **args) -> dict:
        if self.policy not in PROBES:
            raise BadState(f"policy {self.policy.value} has no probe step")
        method, names = PROBES[self.policy]
        return getattr(self, method)(world, *(args[n] for n in names))

    def _probe_all_granules(self, world) -> dict:
        """Attempt a normal-world read of every granule; realm memory must
        fault every time."""
        outcome = {"probed": len(world.granules), "normal_reads": 0,
                   "realm_pas_reads": 0, "faults": 0}
        for g in world.granules.grans:
            was_realm = g.pas is PasTag.REALM
            try:
                world.physical_access(SecurityState.NORMAL, g.index, "read",
                                      length=16)
            except Fault:
                outcome["faults"] += 1
            else:
                if was_realm:
                    outcome["realm_pas_reads"] += 1
                else:
                    outcome["normal_reads"] += 1
        return outcome

    def _double_map(self, world, rd: int, ipa: int) -> dict:
        """Try to map a granule that already backs another realm's memory."""
        target = world.realm_at(rd)
        victim_pa = None
        for g in world.granules.grans:
            if g.state is GranuleState.DATA and g.owner != target.realm_id:
                victim_pa = g.index
                break
        if victim_pa is None:
            raise BadState("no foreign data granule to target")
        try:
            self._rmi(world, "rmi_data_create_unknown", rd, victim_pa, ipa)
        except SimError as err:
            return {"granule": victim_pa, "result": err.code}
        return {"granule": victim_pa, "result": "mapped"}

    def _swap_realm(self, world, rd: int) -> dict:
        """Destroy the realm at a descriptor granule and recreate one at the
        same address; the identifier must come out fresh."""
        old = world.realm_at(rd)
        old_id, width = old.realm_id, old.ipa_width
        self._rmi(world, "rmi_realm_destroy", rd)
        new_id = self._rmi(world, "rmi_realm_create", rd, width)
        return {"old_id": old_id, "new_id": new_id}
