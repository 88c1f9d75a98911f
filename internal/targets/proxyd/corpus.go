// Package proxyd is a Squid-like caching Web proxy simulation. Its
// configuration parsing uses comparison-based mapping (Figure 4c): a parser
// function matches directive names with string comparisons. The corpus
// reproduces Squid's characteristic error-prone handling from the paper:
// boolean directives silently treat anything that is not "on" as "off"
// (Figure 6c), numeric directives are parsed with an unsafe atoi that
// ignores errors (Figure 6d), and the ICP port aborts startup with the
// misleading "FATAL: Cannot open ICP Port" message (Figure 5c).
package proxyd

import (
	"strings"

	"spex/internal/sim"
	"spex/internal/vnet"
)

// proxyConfig holds the parsed directives.
type proxyConfig struct {
	httpPort       int64
	icpPort        int64
	connectTimeout int64
	readTimeout    int64
	requestTimeout int64
	shutdownLife   int64
	pollIntervalMs int64
	idlePollMs     int64
	cacheMem       int64
	maxObjectSize  int64
	maxFileDescs   int64
	workers        int64
	cacheSwapLow   int64
	cacheSwapHigh  int64

	cacheDir     string
	coredumpDir  string
	accessLog    string
	cacheLog     string
	pidFilename  string
	visibleHost  string
	errorDir     string
	memPolicy    string
	cachePolicy  string
	forwardedFor string

	queryICMP        bool
	halfClosed       bool
	dstPassthru      bool
	detectBrokenPcon bool
	balanceIPs       bool
	pipelinePrefetch bool
	memCacheShared   bool
	quickAbort       bool
	offlineMode      bool
	logICPQueries    bool
	bufferedLogs     bool
	checkHostnames   bool
	suppressVersion  bool
	viaHeader        bool
	icpHitStale      bool
}

var pcfg = &proxyConfig{}

// atoi is Squid's unsafe numeric parsing: parse errors and overflow are
// silently ignored, yielding 0 (Figure 6d).
func atoi(s string) int64 {
	var n int64
	neg := false
	i := 0
	if len(s) > 0 && s[0] == '-' {
		neg = true
		i = 1
	}
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0 // unexpected character: undefined result
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		return -n
	}
	return n
}

// setBool implements Squid's boolean parsing: anything that is not "on" is
// silently treated as "off", even "yes" or "enable" (Figure 6c).
func setBool(dst *bool, raw string) {
	if raw == "on" {
		*dst = true
	} else {
		*dst = false
	}
}

// loadProxyConfig dispatches one directive (comparison-based mapping).
func loadProxyConfig(key string, value string) {
	if key == "http_port" {
		pcfg.httpPort = atoi(value)
	} else if key == "icp_port" {
		pcfg.icpPort = atoi(value)
	} else if key == "connect_timeout" {
		pcfg.connectTimeout = atoi(value)
	} else if key == "read_timeout" {
		pcfg.readTimeout = atoi(value)
	} else if key == "request_timeout" {
		pcfg.requestTimeout = atoi(value)
	} else if key == "shutdown_lifetime" {
		pcfg.shutdownLife = atoi(value)
	} else if key == "poll_interval_ms" {
		pcfg.pollIntervalMs = atoi(value)
	} else if key == "idle_poll_ms" {
		pcfg.idlePollMs = atoi(value)
	} else if key == "cache_mem" {
		pcfg.cacheMem = atoi(value)
	} else if key == "maximum_object_size" {
		pcfg.maxObjectSize = atoi(value)
	} else if key == "max_filedescriptors" {
		pcfg.maxFileDescs = atoi(value)
	} else if key == "workers" {
		pcfg.workers = atoi(value)
	} else if key == "cache_swap_low" {
		pcfg.cacheSwapLow = atoi(value)
	} else if key == "cache_swap_high" {
		pcfg.cacheSwapHigh = atoi(value)
	} else if key == "cache_dir" {
		pcfg.cacheDir = value
	} else if key == "coredump_dir" {
		pcfg.coredumpDir = value
	} else if key == "access_log" {
		pcfg.accessLog = value
	} else if key == "cache_log" {
		pcfg.cacheLog = value
	} else if key == "pid_filename" {
		pcfg.pidFilename = value
	} else if key == "visible_hostname" {
		pcfg.visibleHost = value
	} else if key == "error_directory" {
		pcfg.errorDir = value
	} else if key == "memory_replacement_policy" {
		pcfg.memPolicy = value
	} else if key == "cache_replacement_policy" {
		pcfg.cachePolicy = value
	} else if key == "forwarded_for" {
		pcfg.forwardedFor = value
	} else if key == "query_icmp" {
		setBool(&pcfg.queryICMP, value)
	} else if key == "half_closed_clients" {
		setBool(&pcfg.halfClosed, value)
	} else if key == "client_dst_passthru" {
		setBool(&pcfg.dstPassthru, value)
	} else if key == "detect_broken_pconn" {
		setBool(&pcfg.detectBrokenPcon, value)
	} else if key == "balance_on_multiple_ip" {
		setBool(&pcfg.balanceIPs, value)
	} else if key == "pipeline_prefetch" {
		setBool(&pcfg.pipelinePrefetch, value)
	} else if key == "memory_cache_shared" {
		setBool(&pcfg.memCacheShared, value)
	} else if key == "quick_abort" {
		setBool(&pcfg.quickAbort, value)
	} else if key == "offline_mode" {
		setBool(&pcfg.offlineMode, value)
	} else if key == "log_icp_queries" {
		setBool(&pcfg.logICPQueries, value)
	} else if key == "buffered_logs" {
		setBool(&pcfg.bufferedLogs, value)
	} else if key == "check_hostnames" {
		setBool(&pcfg.checkHostnames, value)
	} else if key == "httpd_suppress_version_string" {
		setBool(&pcfg.suppressVersion, value)
	} else if key == "via" {
		setBool(&pcfg.viaHeader, value)
	} else if key == "icp_hit_stale" {
		setBool(&pcfg.icpHitStale, value)
	}
}

// proxyState is the running proxy.
type proxyState struct {
	conf  *proxyConfig
	cache map[string]string
}

// startProxy boots the proxy.
func startProxy(env *sim.Env, c *proxyConfig) (*proxyState, error) {
	// Swap watermarks: out-of-range values are silently clamped.
	if c.cacheSwapLow < 0 {
		c.cacheSwapLow = 0
	} else if c.cacheSwapLow > 100 {
		c.cacheSwapLow = 100
	}
	if c.cacheSwapHigh < 0 {
		c.cacheSwapHigh = 0
	} else if c.cacheSwapHigh > 100 {
		c.cacheSwapHigh = 100
	}
	// The watermark ordering is checked and properly rejected.
	if c.cacheSwapLow > c.cacheSwapHigh {
		env.Log.Errorf("FATAL: cache_swap_low must not exceed cache_swap_high")
		return nil, &sim.ExitError{Status: 1, Reason: "swap watermarks inverted"}
	}
	if c.maxFileDescs < 64 {
		c.maxFileDescs = 64
	} else if c.maxFileDescs > 1048576 {
		c.maxFileDescs = 1048576
	}

	// The cache directory index is read assuming it exists: a missing or
	// unreadable directory crashes at startup (Squid's assertion-failure
	// behaviour).
	entries, err := env.FS.List(c.cacheDir)
	if err != nil {
		panic("assertion failed: storeDirOpenSwapLogs: " + err.Error())
	}
	_ = entries

	st := &proxyState{conf: c, cache: map[string]string{}}
	allocBuffer(c.cacheMem * 1024) // cache_mem is configured in KB
	allocBuffer(c.maxObjectSize)   // bytes

	spawnWorkers(c.workers)

	if !vnet.ValidHost(c.visibleHost) {
		env.Log.Errorf("FATAL: visible_hostname '%s' is not a valid host name", c.visibleHost)
		return nil, &sim.ExitError{Status: 1, Reason: "bad visible_hostname"}
	}
	if err := env.Net.Bind("tcp", int(c.httpPort), "proxyd"); err != nil {
		env.Log.Fatalf("FATAL: Cannot open HTTP Port")
		return nil, &sim.ExitError{Status: 1, Reason: "http bind failed"}
	}
	if c.icpPort > 0 {
		// The misleading Figure 5(c) message: no parameter name.
		if err := env.Net.Bind("udp", int(c.icpPort), "proxyd"); err != nil {
			env.Log.Fatalf("FATAL: Cannot open ICP Port")
			return nil, &sim.ExitError{Status: 1, Reason: "icp bind failed"}
		}
		if c.queryICMP {
			_ = c.logICPQueries // ICP options take effect only with icp_port set
		}
	}

	// Replacement policies: unknown values silently fall back to lru
	// (case-sensitive matching).
	if c.memPolicy == "lru" {
		c.memPolicy = "lru"
	} else if c.memPolicy == "heap" {
		c.memPolicy = "heap"
	} else {
		c.memPolicy = "lru"
	}
	if c.cachePolicy == "lru" {
		c.cachePolicy = "lru"
	} else if c.cachePolicy == "heap" {
		c.cachePolicy = "heap"
	} else {
		c.cachePolicy = "lru"
	}
	// forwarded_for accepts a richer enum, case-insensitively, and
	// rejects unknown values with a pinpointing message.
	if strings.EqualFold(c.forwardedFor, "on") {
		c.forwardedFor = "on"
	} else if strings.EqualFold(c.forwardedFor, "off") {
		c.forwardedFor = "off"
	} else if strings.EqualFold(c.forwardedFor, "transparent") {
		c.forwardedFor = "transparent"
	} else if strings.EqualFold(c.forwardedFor, "delete") {
		c.forwardedFor = "delete"
	} else {
		env.Log.Errorf("FATAL: invalid forwarded_for setting '%s'", c.forwardedFor)
		return nil, &sim.ExitError{Status: 1, Reason: "bad forwarded_for"}
	}

	_ = env.FS.WriteFile(c.accessLog, nil, 6)
	_ = env.FS.WriteFile(c.cacheLog, nil, 6)
	_ = env.FS.WriteFile(c.pidFilename, []byte("1"), 6)
	if !env.FS.IsDir(c.errorDir) {
		env.Log.Warnf("WARNING: error_directory '%s' does not exist", c.errorDir)
	}
	if !env.FS.IsDir(c.coredumpDir) {
		_ = env.FS.MkdirAll(c.coredumpDir)
	}

	sleepSeconds(c.connectTimeout)
	sleepSeconds(c.readTimeout)
	sleepSeconds(c.requestTimeout)
	sleepSeconds(c.shutdownLife)
	sleepMillis(c.pollIntervalMs)
	sleepMillis(c.idlePollMs)
	return st, nil
}

// fetch serves one proxied request through the cache.
func (st *proxyState) fetch(env *sim.Env, url string) (string, bool) {
	if v, ok := st.cache[url]; ok {
		return v, true
	}
	if st.conf.offlineMode {
		return "", false
	}
	body := "origin:" + url
	st.cache[url] = body
	_ = env.FS.Append(st.conf.accessLog, []byte(url+"\n"))
	return body, true
}

// --- runtime helpers (known APIs with real local implementations) ---

func allocBuffer(n int64) []byte {
	if n < 0 {
		// A negative length crashes, as the real make() would.
		panic("runtime error: makeslice: len out of range")
	}
	capped := n
	if capped > 1<<20 {
		capped = 1 << 20 // simulate large allocations with a capped arena
	}
	return arena[:capped:capped]
}

func spawnWorkers(n int64) int64 {
	var slots [16]int64
	for i := int64(0); i < n; i++ {
		slots[i] = i
	}
	return n
}

func sleepSeconds(n int64) {
	if n <= 0 {
		return
	}
}

func sleepMillis(n int64) {
	if n <= 0 {
		return
	}
}
