// Fixture source for the env-registry stale-row check (never compiled,
// only linted): reads the one live knob the fixture README documents.
bool env_flag(const char* name);

bool live_knob() { return env_flag("PARSVD_LIVE_KNOB"); }
