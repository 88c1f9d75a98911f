package httpd

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

// System is the httpd target.
type System struct{}

// New returns the httpd target system.
func New() *System { return &System{} }

func (s *System) Name() string { return "httpd" }
func (s *System) Description() string {
	return "Apache-like web server (structure mapping via handlers)"
}

func (s *System) Syntax() conffile.Syntax { return conffile.SyntaxSpace }

func (s *System) Sources() map[string]string {
	return map[string]string{"corpus.go": corpusSource}
}

// Annotations: the command table maps names to handler functions whose
// "arg" parameter carries the value (Figure 4b; Apache needed 4 lines in
// Table 4).
func (s *System) Annotations() string {
	return `# Apache-style command table
{ @STRUCT = coreCmds
  @PAR = [command, 1]
  @VAR = ([command, 2], $arg) }`
}

func (s *System) DefaultConfig() string {
	return `# httpd server configuration
Listen 8080
ServerName www.example.com
DocumentRoot /srv/www/htdocs
ErrorLog /var/log/httpd/error_log
CustomLog /var/log/httpd/access_log
PidFile /var/run/httpd.pid
ServerAdmin webmaster@example.com
User www-data
Group www-data
Timeout 60
KeepAliveTimeout 5
MaxKeepAliveRequests 100
MaxMemFree 2048
ThreadLimit 64
ThreadsPerChild 25
MaxRequestWorkers 400
MinSpareThreads 25
MaxSpareThreads 75
ListenBacklog 511
KeepAlive on
HostnameLookups off
ServerTokens full
LogLevel warn
`
}

func (s *System) SetupEnv(env *sim.Env) {
	_ = env.FS.MkdirAll("/srv/www/htdocs")
	_ = env.FS.WriteFile("/srv/www/htdocs/index.html", []byte("<html>it works</html>"), 6)
	_ = env.FS.MkdirAll("/var/log/httpd")
}

type instance struct {
	st        *httpdState
	effective map[string]string
	env       *sim.Env
}

func (i *instance) Effective(param string) (string, bool) {
	v, ok := i.effective[param]
	return v, ok
}

func (i *instance) Stop() { i.env.Net.ReleaseOwner("httpd") }

// bootMu serializes the directive-handler phase: the corpus models
// Apache's real global core config, so concurrent boots must not
// interleave until the parsed values are copied out of the global.
var bootMu sync.Mutex

// arena backs the corpus's allocBuffer. Nothing reads the buffer: the
// array exists only so the corpus keeps its negative-length crash and its
// 1 MiB cap without allocating on every boot. No boot writes it, so
// concurrent boots share it.
var arena [1 << 20]byte

func (s *System) Start(env *sim.Env, cfg *conffile.File) (sim.Instance, error) {
	c := loadConfig(env, cfg)
	st, err := startHTTPD(env, c)
	if err != nil {
		return nil, err
	}
	return &instance{st: st, effective: snapshot(c), env: env}, nil
}

// loadConfig runs the directive handlers against the global core config
// under bootMu and hands back a private copy; the boot and the
// functional tests operate on the copy.
func loadConfig(env *sim.Env, cfg *conffile.File) *coreConfig {
	byName := map[string]func(*sim.Env, string){}
	for _, c := range coreCmds {
		byName[c.name] = c.handler
	}
	bootMu.Lock()
	defer bootMu.Unlock()
	*acfg = coreConfig{}
	for _, ln := range cfg.Lines {
		if ln.Kind != conffile.LineDirective {
			continue
		}
		if h, ok := byName[ln.Key]; ok {
			h(env, ln.Value)
		}
	}
	c := *acfg
	return &c
}

func snapshot(c *coreConfig) map[string]string {
	m := map[string]string{}
	ib := func(n string, v int64) { m[n] = strconv.FormatInt(v, 10) }
	sb := func(n, v string) { m[n] = v }
	ib("Listen", c.listenPort)
	sb("ServerName", c.serverName)
	sb("DocumentRoot", c.documentRoot)
	sb("ErrorLog", c.errorLog)
	sb("CustomLog", c.customLog)
	sb("PidFile", c.pidFile)
	sb("ServerAdmin", c.serverAdmin)
	sb("User", c.runUser)
	sb("Group", c.runGroup)
	ib("Timeout", c.timeoutSec)
	ib("KeepAliveTimeout", c.keepAliveSec)
	ib("MaxKeepAliveRequests", c.maxKeepAliveReqs)
	ib("MaxMemFree", c.maxMemFree)
	ib("ThreadLimit", c.threadLimit)
	ib("ThreadsPerChild", c.threadsPerChild)
	ib("MaxRequestWorkers", c.maxWorkers)
	ib("MinSpareThreads", c.minSpareThreads)
	ib("MaxSpareThreads", c.maxSpareThreads)
	ib("ListenBacklog", c.listenBacklog)
	if c.keepAlive {
		sb("KeepAlive", "on")
	} else {
		sb("KeepAlive", "off")
	}
	sb("HostnameLookups", c.hostnameLookups)
	sb("ServerTokens", c.serverTokens)
	sb("LogLevel", c.logLevel)
	return m
}

func (s *System) Tests() []sim.FuncTest {
	return []sim.FuncTest{
		{
			Name: "listen", Weight: 1,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if !env.Net.Occupied("tcp", int(i.st.conf.listenPort)) {
					return fmt.Errorf("server is not listening")
				}
				return nil
			},
		},
		{
			Name: "get-index", Weight: 3,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if _, ok := i.st.serveFile(env, "index.html"); !ok {
					return fmt.Errorf("GET /index.html failed")
				}
				return nil
			},
		},
		{
			Name: "access-log", Weight: 2,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				i.st.serveFile(env, "index.html")
				if !env.FS.Exists(i.st.conf.customLog) {
					return fmt.Errorf("access log was not created")
				}
				return nil
			},
		},
		{
			Name: "worker-pool", Weight: 4,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if i.st.conf.threadsPerChild < 1 {
					return fmt.Errorf("no worker threads configured")
				}
				return nil
			},
		},
	}
}

func (s *System) Manual() map[string]sim.ManualEntry {
	doc := func(prose string, kinds ...constraint.Kind) sim.ManualEntry {
		return sim.ManualEntry{Prose: prose, Documented: kinds}
	}
	return map[string]sim.ManualEntry{
		"Listen":       doc("Port the server listens on.", constraint.KindBasicType, constraint.KindSemanticType),
		"DocumentRoot": doc("Directory out of which documents are served.", constraint.KindBasicType, constraint.KindSemanticType),
		"ServerName":   doc("Hostname the server identifies itself with.", constraint.KindBasicType, constraint.KindSemanticType),
		"Timeout":      doc("Seconds before a request times out.", constraint.KindBasicType, constraint.KindSemanticType),
		"KeepAlive":    doc("On or Off.", constraint.KindBasicType, constraint.KindRange),
		"LogLevel":     doc("debug, info, warn or error.", constraint.KindBasicType, constraint.KindRange),
		"User":         doc("User to run as.", constraint.KindBasicType, constraint.KindSemanticType),
		"Group":        doc("Group to run as.", constraint.KindBasicType, constraint.KindSemanticType),
		// MaxMemFree's KB unit and ThreadLimit's hard bound are
		// deliberately undocumented (Figures 6b, 7b).
	}
}

func (s *System) GroundTruth() *constraint.Set {
	gt := constraint.NewSet("httpd")
	b := func(p string, t constraint.BasicType) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindBasicType, Param: p, Basic: t})
	}
	sem := func(p string, t constraint.SemanticType, u constraint.Unit) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindSemanticType, Param: p, Semantic: t, Unit: u})
	}
	for _, p := range []string{
		"Listen", "Timeout", "KeepAliveTimeout", "MaxKeepAliveRequests",
		"MaxMemFree", "ThreadLimit", "ThreadsPerChild", "MaxRequestWorkers",
		"MinSpareThreads", "MaxSpareThreads", "ListenBacklog",
	} {
		b(p, constraint.BasicInt64)
	}
	for _, p := range []string{
		"ServerName", "DocumentRoot", "ErrorLog", "CustomLog", "PidFile",
		"ServerAdmin", "User", "Group", "HostnameLookups", "ServerTokens", "LogLevel",
	} {
		b(p, constraint.BasicString)
	}
	b("KeepAlive", constraint.BasicBool)

	sem("Listen", constraint.SemPort, constraint.UnitNone)
	sem("ServerName", constraint.SemHost, constraint.UnitNone)
	sem("DocumentRoot", constraint.SemDirectory, constraint.UnitNone)
	sem("ErrorLog", constraint.SemFile, constraint.UnitNone)
	sem("CustomLog", constraint.SemFile, constraint.UnitNone)
	sem("PidFile", constraint.SemFile, constraint.UnitNone)
	sem("User", constraint.SemUser, constraint.UnitNone)
	sem("Group", constraint.SemGroup, constraint.UnitNone)
	sem("Timeout", constraint.SemTimeout, constraint.UnitSecond)
	sem("KeepAliveTimeout", constraint.SemTimeout, constraint.UnitSecond)
	sem("MaxMemFree", constraint.SemSize, constraint.UnitKB)
	sem("ThreadsPerChild", constraint.SemCount, constraint.UnitNone)

	rng := func(p string, min, max int64, hasMin, hasMax bool) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindRange, Param: p,
			Intervals: []constraint.Interval{{Min: min, Max: max, HasMin: hasMin, HasMax: hasMax, Valid: true}}})
	}
	rng("ThreadLimit", 0, 8192, false, true)
	rng("ThreadsPerChild", 1, 0, true, false)
	rng("MaxKeepAliveRequests", 0, 0, true, false)
	enum := func(p string, vals ...string) {
		evs := make([]constraint.EnumValue, len(vals))
		for i, v := range vals {
			evs[i] = constraint.EnumValue{Value: v, Valid: true}
		}
		gt.Add(&constraint.Constraint{Kind: constraint.KindRange, Param: p, Enum: evs})
	}
	enum("KeepAlive", "on", "off")
	enum("HostnameLookups", "on", "off", "double")
	enum("ServerTokens", "full", "prod", "minimal")
	enum("LogLevel", "debug", "info", "warn", "error")

	gt.Add(&constraint.Constraint{Kind: constraint.KindValueRel,
		Param: "MinSpareThreads", Rel: constraint.OpLE, Peer: "MaxSpareThreads"})
	gt.Add(&constraint.Constraint{Kind: constraint.KindControlDep,
		Param: "KeepAliveTimeout", Peer: "KeepAlive", Cond: constraint.OpEQ, Value: "true"})
	return gt
}

var _ sim.System = (*System)(nil)
