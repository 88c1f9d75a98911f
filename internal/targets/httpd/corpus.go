// Package httpd is an Apache-httpd-like web server simulation. Its
// configuration uses structure-based mapping through handler functions
// (Figure 4b: the command_rec table binds directive names to AP_INIT_TAKE1
// setters). Seeded patterns from the paper: MaxMemFree is the KB-unit
// outlier among byte-unit size parameters (Figure 6b), ThreadLimit aborts
// startup with the misleading scoreboard message (Figure 7b), numeric
// directives are parsed with an unsafe atoi (27 parameters in Table 8),
// and HostnameLookups silently overrules unknown values (the one Apache
// silent-overruling parameter).
package httpd

import (
	"strings"

	"spex/internal/sim"
	"spex/internal/vnet"
)

// coreConfig is the server configuration.
type coreConfig struct {
	listenPort       int64
	serverName       string
	documentRoot     string
	errorLog         string
	customLog        string
	pidFile          string
	serverAdmin      string
	runUser          string
	runGroup         string
	timeoutSec       int64
	keepAliveSec     int64
	maxKeepAliveReqs int64
	maxMemFree       int64 // KB: the unit outlier (Figure 6b)
	threadLimit      int64
	threadsPerChild  int64
	maxWorkers       int64
	minSpareThreads  int64
	maxSpareThreads  int64
	listenBacklog    int64
	keepAlive        bool
	hostnameLookups  string
	serverTokens     string
	logLevel         string
}

var acfg = &coreConfig{}

// command binds a directive name to its handler (Figure 4b).
type command struct {
	name    string
	handler func(env *sim.Env, arg string)
}

var coreCmds = []command{
	{"Listen", setListen},
	{"ServerName", setServerName},
	{"DocumentRoot", setDocumentRoot},
	{"ErrorLog", setErrorLog},
	{"CustomLog", setCustomLog},
	{"PidFile", setPidFile},
	{"ServerAdmin", setServerAdmin},
	{"User", setUser},
	{"Group", setGroup},
	{"Timeout", setTimeout},
	{"KeepAliveTimeout", setKeepAliveTimeout},
	{"MaxKeepAliveRequests", setMaxKeepAliveRequests},
	{"MaxMemFree", setMaxMemFree},
	{"ThreadLimit", setThreadLimit},
	{"ThreadsPerChild", setThreadsPerChild},
	{"MaxRequestWorkers", setMaxRequestWorkers},
	{"MinSpareThreads", setMinSpareThreads},
	{"MaxSpareThreads", setMaxSpareThreads},
	{"ListenBacklog", setListenBacklog},
	{"KeepAlive", setKeepAlive},
	{"HostnameLookups", setHostnameLookups},
	{"ServerTokens", setServerTokens},
	{"LogLevel", setLogLevel},
}

// atoi: Apache's legacy numeric parsing ignores trailing garbage and
// errors (Figure 6d).
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
			break // trailing garbage silently ignored
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		return -n
	}
	return n
}

func setListen(env *sim.Env, arg string)           { acfg.listenPort = atoi(arg) }
func setServerName(env *sim.Env, arg string)       { acfg.serverName = arg }
func setDocumentRoot(env *sim.Env, arg string)     { acfg.documentRoot = arg }
func setErrorLog(env *sim.Env, arg string)         { acfg.errorLog = arg }
func setCustomLog(env *sim.Env, arg string)        { acfg.customLog = arg }
func setPidFile(env *sim.Env, arg string)          { acfg.pidFile = arg }
func setServerAdmin(env *sim.Env, arg string)      { acfg.serverAdmin = arg }
func setUser(env *sim.Env, arg string)             { acfg.runUser = arg }
func setGroup(env *sim.Env, arg string)            { acfg.runGroup = arg }
func setTimeout(env *sim.Env, arg string)          { acfg.timeoutSec = atoi(arg) }
func setKeepAliveTimeout(env *sim.Env, arg string) { acfg.keepAliveSec = atoi(arg) }

func setMaxKeepAliveRequests(env *sim.Env, arg string) { acfg.maxKeepAliveReqs = atoi(arg) }

// setMaxMemFree stores the KB value (Figure 6b: multiplied by 1024 before
// reaching the byte-unit allocator).
func setMaxMemFree(env *sim.Env, arg string) { acfg.maxMemFree = atoi(arg) }

func setThreadLimit(env *sim.Env, arg string)     { acfg.threadLimit = atoi(arg) }
func setThreadsPerChild(env *sim.Env, arg string) { acfg.threadsPerChild = atoi(arg) }

func setMaxRequestWorkers(env *sim.Env, arg string) { acfg.maxWorkers = atoi(arg) }
func setMinSpareThreads(env *sim.Env, arg string)   { acfg.minSpareThreads = atoi(arg) }
func setMaxSpareThreads(env *sim.Env, arg string)   { acfg.maxSpareThreads = atoi(arg) }
func setListenBacklog(env *sim.Env, arg string)     { acfg.listenBacklog = atoi(arg) }

func setKeepAlive(env *sim.Env, arg string) {
	if strings.EqualFold(arg, "on") {
		acfg.keepAlive = true
	} else if strings.EqualFold(arg, "off") {
		acfg.keepAlive = false
	} else {
		env.Log.Errorf("AH00526: KeepAlive must be On or Off, got '%s'", arg)
	}
}

// setHostnameLookups silently overrules unknown values to "off" (the one
// Apache silent-overruling parameter in Table 8).
func setHostnameLookups(env *sim.Env, arg string) {
	if arg == "on" {
		acfg.hostnameLookups = "on"
	} else if arg == "off" {
		acfg.hostnameLookups = "off"
	} else if arg == "double" {
		acfg.hostnameLookups = "double"
	} else {
		acfg.hostnameLookups = "off"
	}
}

func setServerTokens(env *sim.Env, arg string) {
	if strings.EqualFold(arg, "full") {
		acfg.serverTokens = "full"
	} else if strings.EqualFold(arg, "prod") {
		acfg.serverTokens = "prod"
	} else if strings.EqualFold(arg, "minimal") {
		acfg.serverTokens = "minimal"
	} else {
		env.Log.Errorf("AH00665: invalid ServerTokens value '%s'", arg)
	}
}

func setLogLevel(env *sim.Env, arg string) {
	if strings.EqualFold(arg, "debug") {
		acfg.logLevel = "debug"
	} else if strings.EqualFold(arg, "info") {
		acfg.logLevel = "info"
	} else if strings.EqualFold(arg, "warn") {
		acfg.logLevel = "warn"
	} else if strings.EqualFold(arg, "error") {
		acfg.logLevel = "error"
	} else {
		env.Log.Errorf("AH00115: invalid LogLevel '%s'", arg)
	}
}

// httpdState is the running server.
type httpdState struct {
	conf    *coreConfig
	started bool
}

// startHTTPD boots the server.
func startHTTPD(env *sim.Env, c *coreConfig) (*httpdState, error) {
	// Spare-thread window: Apache silently fixes an inverted window.
	if c.minSpareThreads > c.maxSpareThreads {
		c.maxSpareThreads = c.minSpareThreads
	}
	if c.threadsPerChild < 1 {
		c.threadsPerChild = 1
	}
	if c.maxKeepAliveReqs < 0 {
		c.maxKeepAliveReqs = 0
	}
	if c.listenBacklog < 1 {
		c.listenBacklog = 511
	}

	// The scoreboard is sized from ThreadLimit without validation: an
	// oversized value aborts with the misleading Figure 7(b) message.
	score := c.threadLimit * 512
	if score > 4194304 {
		env.Log.Fatalf("Cannot allocate memory: AH00004: Unable to create access scoreboard (anonymous shared memory failure)")
		return nil, &sim.ExitError{Status: 1, Reason: "scoreboard allocation failed"}
	}
	allocPool(score)

	// MaxMemFree is configured in KB but the allocator takes bytes
	// (Figure 6b); a negative value crashes the allocator.
	freeList := allocBuffer(c.maxMemFree * 1024)
	_ = freeList

	if !env.FS.IsDir(c.documentRoot) {
		env.Log.Errorf("AH00112: Warning: DocumentRoot [%s] does not exist", c.documentRoot)
		return nil, &sim.ExitError{Status: 1, Reason: "document root missing"}
	}
	if !vnet.ValidHost(c.serverName) {
		env.Log.Errorf("AH00558: could not reliably determine the server's fully qualified domain name")
		return nil, &sim.ExitError{Status: 1, Reason: "bad server name"}
	}
	if !lookupUser(c.runUser) {
		env.Log.Fatalf("AH00543: bad user name")
		return nil, &sim.ExitError{Status: 1, Reason: "bad user"}
	}
	if !lookupGroup(c.runGroup) {
		env.Log.Fatalf("AH00544: bad group name")
		return nil, &sim.ExitError{Status: 1, Reason: "bad group"}
	}
	if err := env.Net.Bind("tcp", int(c.listenPort), "httpd"); err != nil {
		env.Log.Fatalf("AH00072: make_sock: could not bind to address")
		return nil, &sim.ExitError{Status: 1, Reason: "bind failed"}
	}
	_ = env.FS.WriteFile(c.errorLog, nil, 6)
	_ = env.FS.WriteFile(c.customLog, nil, 6)
	_ = env.FS.WriteFile(c.pidFile, []byte("1"), 6)

	if c.keepAlive {
		sleepSeconds(c.keepAliveSec)
	}
	sleepSeconds(c.timeoutSec)
	spawnWorkers(c.threadsPerChild)
	return &httpdState{conf: c, started: true}, nil
}

// serveFile answers one GET request from the document root.
func (st *httpdState) serveFile(env *sim.Env, path string) (string, bool) {
	full := st.conf.documentRoot + "/" + path
	data, err := env.FS.ReadFile(full)
	if err != nil {
		_ = env.FS.Append(st.conf.errorLog, []byte("404 "+path+"\n"))
		return "", false
	}
	_ = env.FS.Append(st.conf.customLog, []byte("200 "+path+"\n"))
	return string(data), true
}

// --- runtime helpers ---

func allocBuffer(n int64) []byte {
	if n < 0 {
		panic("runtime error: makeslice: len out of range")
	}
	capped := n
	if capped > 1<<20 {
		capped = 1 << 20
	}
	return arena[:capped:capped]
}

func allocPool(n int64) {
	if n < 0 {
		return
	}
}

func spawnWorkers(n int64) int64 {
	var slots [64]int64
	for i := int64(0); i < n; i++ {
		slots[i] = i // hard-coded 64 worker slots
	}
	return n
}

func sleepSeconds(n int64) {
	if n <= 0 {
		return
	}
}

func lookupUser(name string) bool  { return name == "www-data" || name == "root" }
func lookupGroup(name string) bool { return name == "www-data" || name == "wheel" }
