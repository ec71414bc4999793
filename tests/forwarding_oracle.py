"""The brute-force forwarding oracle, shared by the tests that check
decide_forward against it: acceptance criterion 7 on random tables, and
the protocol tests on random tables and table histories."""

import math


def brute_force(state, pkt, my_pos, sink, positions):
    """(primary, duplicate, eligible ids) of one decision, spelled out.

    Every distance comes from a position kept here: my_pos, sink and
    positions, each neighbour's position by id; none from the table or
    the state.
    """
    d_here = math.dist(my_pos, sink)
    if pkt.t_l <= 0.0:
        return None, None, set()
    v_req = d_here / pkt.t_l
    eligible = {}
    for nid, entry in state.forwarding_table.items():
        if entry.link_delay <= 0.0:
            continue
        d_n = math.dist(positions[nid], sink)
        if d_n >= d_here:
            continue
        v_prov = (d_here - d_n) / entry.link_delay
        if v_prov >= v_req:
            eligible[nid] = v_prov
    ranked = sorted(eligible, key=lambda nid: (-eligible[nid], nid))
    primary = ranked[0] if ranked else None
    duplicate = None
    if (primary is not None and state.my_id == pkt.source_id
            and not pkt.is_duplicate and len(ranked) >= 2):
        duplicate = ranked[1]
    return primary, duplicate, set(eligible)
