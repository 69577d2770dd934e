from hypothesis import settings

# Fixed example sequences and no per-example deadline: property tests draw the
# same inputs on every run, however slow the machine.
settings.register_profile("symplag", derandomize=True, deadline=None)
settings.load_profile("symplag")
