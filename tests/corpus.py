"""The one generator of random whole runs: test_golden.py pins the traces
of its draws from a seeded random.Random, so a change to it re-pins them,
and test_run_properties.py draws through it with Hypothesis."""

from dartsim.scenario import Scenario, validate


def corpus_scenario(rng) -> Scenario:
    """One small scenario unlike the goldens, drawn from rng.

    3-25 nodes placed uniformly, on a grid or point by point; loss up to
    0.3 with retries; bootstrap gaps equal to the spread or a multiple of
    spread / (nodes + 1), so rounds of one node or of two nodes fall due
    at the same time; short HELLO and echo periods, and some echo periods
    below one round trip; zero-width load windows and early CBR stops.
    """
    sc = Scenario()
    sc.nodes = n = rng.randint(3, 25)
    sc.seed = rng.randrange(2**32)
    sc.area_width = rng.uniform(100.0, 500.0)
    sc.area_height = rng.uniform(100.0, 500.0)
    sc.tx_range = rng.uniform(150.0, 300.0)
    sc.placement = rng.choice(["uniform", "grid", "explicit"])
    if sc.placement == "explicit":
        sc.positions = [(rng.uniform(0.0, sc.area_width),
                         rng.uniform(0.0, sc.area_height)) for _ in range(n)]
    sc.sink = rng.randrange(n)
    sc.sim_time = rng.choice([3.0, 6.0, rng.uniform(1.5, 8.0)])
    if rng.random() < 0.5:
        sc.cbr_count = rng.randint(1, min(5, n - 1))
    else:
        others = [i for i in range(n) if i != sc.sink]
        sc.cbr_sources = sorted(rng.sample(others,
                                           rng.randint(1, min(3, n - 1))))
    sc.interval_s = rng.choice([1.0, 0.5, rng.uniform(0.1, 2.0)])
    sc.deadline_ms = rng.uniform(2.0, 40.0)
    sc.cbr_start_s = rng.choice([0.0, 1.0, rng.uniform(0.0, 3.0)])
    if rng.random() < 0.3:
        sc.cbr_stop_s = sc.cbr_start_s + rng.uniform(0.0, 4.0)
    sc.loss = rng.choice([0.0, rng.uniform(0.0, 0.3)])
    sc.max_retries = rng.randint(0, 5)
    sc.jitter_ms = rng.choice([0.0, 0.05, rng.uniform(0.0, 0.5)])
    sc.bootstrap_rounds = rng.randint(1, 4)
    sc.bootstrap_spread_s = spread = rng.choice([0.5, 1.0, 2.0])
    sc.bootstrap_gap_s = rng.choice([spread,
                                     spread * rng.randint(1, 3) / (n + 1),
                                     rng.uniform(0.2, 3.0)])
    if rng.random() < 0.3:
        sc.hello_period_s = rng.uniform(0.5, 3.0)
    if rng.random() < 0.3:
        sc.echo_period_s = rng.uniform(0.5, 3.0)
    elif rng.random() < 0.1:
        # replies come back after the next probe, so some are rejected
        sc.echo_period_s = rng.uniform(0.0005, 0.002)
        sc.sim_time = rng.uniform(0.2, 0.6)
    for key in ("ctl_window_s", "flow_window_s", "queue_window_s"):
        if rng.random() < 0.2:
            setattr(sc, key, 0.0)
    validate(sc)
    return sc
