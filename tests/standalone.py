"""A standalone trial: `run_trial` fed its own `_draws` stream, as a serial
loop outside `run_experiment` runs it."""

from ddnpca.bench import _draws, run_trial


def standalone_trial(cfg, trial_index, plan=1):
    """The records of trial `trial_index` of `cfg`, its first `plan` blocks
    taken from a stream of that trial alone, the later ones from its source."""
    return run_trial(cfg, trial_index, _draws(cfg, [trial_index], plan), plan)
