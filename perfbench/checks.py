"""Output checks on perfbench_runner records.

Each function returns a list of human-readable problems; an empty list means
the check passed. run.py counts a replay as failed when any check on it
reports a problem, and tests/test_perfbench.py feeds these doctored records.
"""


def conservation(record):
    """Every arrival in the measured window ends as exactly one completion
    record: completed, shed or aborted."""
    c = record["conservation"]
    problems = []
    if c["records"] != c["measured_arrivals"]:
        problems.append(
            f"{c['measured_arrivals']} measured arrivals but {c['records']} "
            "completion records")
    if c["unique_requests"] != c["records"]:
        problems.append(
            f"{c['records'] - c['unique_requests']} requests recorded twice")
    ended = c["completed"] + c["shed"] + c["aborted"]
    if ended != c["measured_arrivals"]:
        problems.append(
            f"completed + shed + aborted = {ended}, measured arrivals = "
            f"{c['measured_arrivals']}")
    if c["shed"] != c["shed_counter"]:
        problems.append(
            f"{c['shed']} shed records but shed counter {c['shed_counter']}")
    if c["aborted"] != c["aborted_counter"]:
        problems.append(
            f"{c['aborted']} aborted records but abort counter "
            f"{c['aborted_counter']}")
    if c["bad_latency"]:
        problems.append(f"{c['bad_latency']} completions with a bad latency")
    return problems


def same_simulation(reference, candidate, what):
    """Two replays of one seed must decide identically: every simulated
    metric and counter, and the completion digest, repeat exactly."""
    ref, got = reference["sim"], candidate["sim"]
    problems = []
    for key in sorted(set(ref) | set(got)):
        if ref.get(key) != got.get(key):
            problems.append(
                f"{what}: {key} = {got.get(key)!r}, expected {ref.get(key)!r}")
    return problems
