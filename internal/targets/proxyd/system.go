package proxyd

import (
	_ "embed"
	"fmt"
	"strconv"
	"sync"

	"spex/internal/conffile"
	"spex/internal/constraint"
	"spex/internal/sim"
)

//go:embed corpus.go
var corpusSource string

// System is the proxyd target.
type System struct{}

// New returns the proxyd target system.
func New() *System { return &System{} }

func (s *System) Name() string        { return "proxyd" }
func (s *System) Description() string { return "Squid-like caching proxy (comparison mapping)" }

func (s *System) Syntax() conffile.Syntax { return conffile.SyntaxSpace }

func (s *System) Sources() map[string]string {
	return map[string]string{"corpus.go": corpusSource}
}

// Annotations: the parser function and its name/value arguments
// (comparison-based mapping, Figure 4c). Squid needed only 2 lines in the
// paper.
func (s *System) Annotations() string {
	return `{ @PARSER = loadProxyConfig
  @PAR = $key  @VAR = $value }`
}

func (s *System) DefaultConfig() string {
	return `# proxyd configuration
http_port 3128
icp_port 3130
connect_timeout 60
read_timeout 300
request_timeout 30
shutdown_lifetime 30
poll_interval_ms 100
idle_poll_ms 50
cache_mem 262144
maximum_object_size 4194304
max_filedescriptors 1024
workers 4
cache_swap_low 90
cache_swap_high 95
cache_dir /var/spool/proxyd
coredump_dir /var/spool/proxyd/core
access_log /var/log/proxyd/access.log
cache_log /var/log/proxyd/cache.log
pid_filename /var/run/proxyd.pid
visible_hostname proxy.example.com
error_directory /usr/share/proxyd/errors
memory_replacement_policy lru
cache_replacement_policy lru
forwarded_for on
query_icmp on
half_closed_clients on
client_dst_passthru on
detect_broken_pconn off
balance_on_multiple_ip off
pipeline_prefetch off
memory_cache_shared off
quick_abort on
offline_mode off
log_icp_queries on
buffered_logs off
check_hostnames on
httpd_suppress_version_string off
via on
icp_hit_stale off
`
}

func (s *System) SetupEnv(env *sim.Env) {
	_ = env.FS.MkdirAll("/var/spool/proxyd")
	_ = env.FS.WriteFile("/var/spool/proxyd/swap.state", []byte("00"), 6)
	_ = env.FS.MkdirAll("/usr/share/proxyd/errors")
	_ = env.FS.MkdirAll("/var/log/proxyd")
}

type instance struct {
	st        *proxyState
	effective map[string]string
	env       *sim.Env
}

func (i *instance) Effective(param string) (string, bool) {
	v, ok := i.effective[param]
	return v, ok
}

func (i *instance) Stop() { i.env.Net.ReleaseOwner("proxyd") }

// bootMu serializes the config-parse phase: the corpus models Squid's
// real global Config, so concurrent boots must not interleave until the
// parsed values are copied out of the global.
var bootMu sync.Mutex

// arena backs the corpus's allocBuffer. Nothing reads the buffer: the
// array exists only so the corpus keeps its negative-length crash and its
// 1 MiB cap without allocating on every boot. No boot writes it, so
// concurrent boots share it.
var arena [1 << 20]byte

func (s *System) Start(env *sim.Env, cfg *conffile.File) (sim.Instance, error) {
	c := loadConfig(cfg)
	st, err := startProxy(env, c)
	if err != nil {
		return nil, err
	}
	return &instance{st: st, effective: snapshot(c), env: env}, nil
}

// loadConfig parses the directives through the global config under
// bootMu and hands back a private copy; the boot and the functional
// tests operate on the copy.
func loadConfig(cfg *conffile.File) *proxyConfig {
	bootMu.Lock()
	defer bootMu.Unlock()
	*pcfg = proxyConfig{}
	for _, ln := range cfg.Lines {
		if ln.Kind == conffile.LineDirective {
			loadProxyConfig(ln.Key, ln.Value)
		}
	}
	c := *pcfg
	return &c
}

func snapshot(c *proxyConfig) map[string]string {
	m := map[string]string{}
	ib := func(n string, v int64) { m[n] = strconv.FormatInt(v, 10) }
	sb := func(n, v string) { m[n] = v }
	bb := func(n string, v bool) {
		if v {
			m[n] = "on"
		} else {
			m[n] = "off"
		}
	}
	ib("http_port", c.httpPort)
	ib("icp_port", c.icpPort)
	ib("connect_timeout", c.connectTimeout)
	ib("read_timeout", c.readTimeout)
	ib("request_timeout", c.requestTimeout)
	ib("shutdown_lifetime", c.shutdownLife)
	ib("poll_interval_ms", c.pollIntervalMs)
	ib("idle_poll_ms", c.idlePollMs)
	ib("cache_mem", c.cacheMem)
	ib("maximum_object_size", c.maxObjectSize)
	ib("max_filedescriptors", c.maxFileDescs)
	ib("workers", c.workers)
	ib("cache_swap_low", c.cacheSwapLow)
	ib("cache_swap_high", c.cacheSwapHigh)
	sb("cache_dir", c.cacheDir)
	sb("coredump_dir", c.coredumpDir)
	sb("access_log", c.accessLog)
	sb("cache_log", c.cacheLog)
	sb("pid_filename", c.pidFilename)
	sb("visible_hostname", c.visibleHost)
	sb("error_directory", c.errorDir)
	sb("memory_replacement_policy", c.memPolicy)
	sb("cache_replacement_policy", c.cachePolicy)
	sb("forwarded_for", c.forwardedFor)
	bb("query_icmp", c.queryICMP)
	bb("half_closed_clients", c.halfClosed)
	bb("client_dst_passthru", c.dstPassthru)
	bb("detect_broken_pconn", c.detectBrokenPcon)
	bb("balance_on_multiple_ip", c.balanceIPs)
	bb("pipeline_prefetch", c.pipelinePrefetch)
	bb("memory_cache_shared", c.memCacheShared)
	bb("quick_abort", c.quickAbort)
	bb("offline_mode", c.offlineMode)
	bb("log_icp_queries", c.logICPQueries)
	bb("buffered_logs", c.bufferedLogs)
	bb("check_hostnames", c.checkHostnames)
	bb("httpd_suppress_version_string", c.suppressVersion)
	bb("via", c.viaHeader)
	bb("icp_hit_stale", c.icpHitStale)
	return m
}

func (s *System) Tests() []sim.FuncTest {
	return []sim.FuncTest{
		{
			Name: "listen", Weight: 1,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if !env.Net.Occupied("tcp", int(i.st.conf.httpPort)) {
					return fmt.Errorf("proxy is not listening on its HTTP port")
				}
				return nil
			},
		},
		{
			Name: "icp-listen", Weight: 2,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if i.st.conf.icpPort > 0 && !env.Net.Occupied("udp", int(i.st.conf.icpPort)) {
					return fmt.Errorf("ICP port configured but not bound")
				}
				return nil
			},
		},
		{
			Name: "http-fetch", Weight: 3,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if _, ok := i.st.fetch(env, "http://example.com/index.html"); !ok {
					return fmt.Errorf("proxy failed to fetch a cacheable object")
				}
				return nil
			},
		},
		{
			Name: "cache-hit", Weight: 4,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				i.st.fetch(env, "http://example.com/a")
				if _, ok := i.st.fetch(env, "http://example.com/a"); !ok {
					return fmt.Errorf("cache miss on a just-cached object")
				}
				return nil
			},
		},
		{
			Name: "replacement-policy", Weight: 2,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				switch i.st.conf.memPolicy {
				case "lru", "heap":
					return nil
				}
				return fmt.Errorf("invalid memory replacement policy %q", i.st.conf.memPolicy)
			},
		},
	}
}

func (s *System) Manual() map[string]sim.ManualEntry {
	doc := func(prose string, kinds ...constraint.Kind) sim.ManualEntry {
		return sim.ManualEntry{Prose: prose, Documented: kinds}
	}
	return map[string]sim.ManualEntry{
		"http_port":        doc("Port for HTTP client connections.", constraint.KindBasicType, constraint.KindSemanticType),
		"icp_port":         doc("Port for ICP queries; 0 disables ICP.", constraint.KindBasicType, constraint.KindSemanticType),
		"cache_dir":        doc("Top-level cache directory.", constraint.KindBasicType, constraint.KindSemanticType),
		"cache_mem":        doc("Memory cache size (KB).", constraint.KindBasicType, constraint.KindSemanticType),
		"forwarded_for":    doc("on, off, transparent or delete.", constraint.KindBasicType, constraint.KindRange),
		"cache_swap_low":   doc("Low watermark percentage.", constraint.KindBasicType),
		"cache_swap_high":  doc("High watermark percentage.", constraint.KindBasicType),
		"visible_hostname": doc("Hostname advertised in errors.", constraint.KindBasicType, constraint.KindSemanticType),
	}
}

func (s *System) GroundTruth() *constraint.Set {
	gt := constraint.NewSet("proxyd")
	b := func(p string, t constraint.BasicType) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindBasicType, Param: p, Basic: t})
	}
	sem := func(p string, t constraint.SemanticType, u constraint.Unit) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindSemanticType, Param: p, Semantic: t, Unit: u})
	}
	for _, p := range []string{
		"http_port", "icp_port", "connect_timeout", "read_timeout",
		"request_timeout", "shutdown_lifetime", "poll_interval_ms",
		"idle_poll_ms", "cache_mem", "maximum_object_size",
		"max_filedescriptors", "workers", "cache_swap_low", "cache_swap_high",
	} {
		b(p, constraint.BasicInt64)
	}
	for _, p := range []string{
		"cache_dir", "coredump_dir", "access_log", "cache_log",
		"pid_filename", "visible_hostname", "error_directory",
		"memory_replacement_policy", "cache_replacement_policy", "forwarded_for",
	} {
		b(p, constraint.BasicString)
	}
	bools := []string{
		"query_icmp", "half_closed_clients", "client_dst_passthru",
		"detect_broken_pconn", "balance_on_multiple_ip", "pipeline_prefetch",
		"memory_cache_shared", "quick_abort", "offline_mode",
		"log_icp_queries", "buffered_logs", "check_hostnames",
		"httpd_suppress_version_string", "via", "icp_hit_stale",
	}
	for _, p := range bools {
		b(p, constraint.BasicBool)
		gt.Add(&constraint.Constraint{Kind: constraint.KindRange, Param: p,
			Enum: []constraint.EnumValue{{Value: "on", Valid: true}, {Value: "off", Valid: true}}})
	}
	sem("http_port", constraint.SemPort, constraint.UnitNone)
	sem("icp_port", constraint.SemPort, constraint.UnitNone)
	sem("connect_timeout", constraint.SemTimeout, constraint.UnitSecond)
	sem("read_timeout", constraint.SemTimeout, constraint.UnitSecond)
	sem("request_timeout", constraint.SemTimeout, constraint.UnitSecond)
	sem("shutdown_lifetime", constraint.SemTimeout, constraint.UnitSecond)
	sem("poll_interval_ms", constraint.SemTimeout, constraint.UnitMillisecond)
	sem("idle_poll_ms", constraint.SemTimeout, constraint.UnitMillisecond)
	sem("cache_mem", constraint.SemSize, constraint.UnitKB)
	sem("maximum_object_size", constraint.SemSize, constraint.UnitByte)
	sem("workers", constraint.SemCount, constraint.UnitNone)
	sem("cache_dir", constraint.SemDirectory, constraint.UnitNone)
	sem("coredump_dir", constraint.SemDirectory, constraint.UnitNone)
	sem("error_directory", constraint.SemDirectory, constraint.UnitNone)
	sem("access_log", constraint.SemFile, constraint.UnitNone)
	sem("cache_log", constraint.SemFile, constraint.UnitNone)
	sem("pid_filename", constraint.SemFile, constraint.UnitNone)
	sem("visible_hostname", constraint.SemHost, constraint.UnitNone)

	rng := func(p string, min, max int64) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindRange, Param: p,
			Intervals: []constraint.Interval{{Min: min, Max: max, HasMin: true, HasMax: true, Valid: true}}})
	}
	rng("cache_swap_low", 0, 100)
	rng("cache_swap_high", 0, 100)
	rng("max_filedescriptors", 64, 1048576)
	gt.Add(&constraint.Constraint{Kind: constraint.KindRange, Param: "memory_replacement_policy",
		Enum: []constraint.EnumValue{{Value: "lru", Valid: true}, {Value: "heap", Valid: true}}})
	gt.Add(&constraint.Constraint{Kind: constraint.KindRange, Param: "cache_replacement_policy",
		Enum: []constraint.EnumValue{{Value: "lru", Valid: true}, {Value: "heap", Valid: true}}})
	gt.Add(&constraint.Constraint{Kind: constraint.KindRange, Param: "forwarded_for",
		Enum: []constraint.EnumValue{
			{Value: "on", Valid: true}, {Value: "off", Valid: true},
			{Value: "transparent", Valid: true}, {Value: "delete", Valid: true}}})

	gt.Add(&constraint.Constraint{Kind: constraint.KindValueRel,
		Param: "cache_swap_low", Rel: constraint.OpLE, Peer: "cache_swap_high"})
	gt.Add(&constraint.Constraint{Kind: constraint.KindControlDep,
		Param: "query_icmp", Peer: "icp_port", Cond: constraint.OpGT, Value: "0"})
	gt.Add(&constraint.Constraint{Kind: constraint.KindControlDep,
		Param: "access_log", Peer: "offline_mode", Cond: constraint.OpEQ, Value: "false"})
	return gt
}

var _ sim.System = (*System)(nil)
