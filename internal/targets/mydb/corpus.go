// Package mydb is a MySQL-like database server simulation: one of the seven
// evaluated targets. This file is the configuration-handling corpus — it is
// both executed by the runtime and analyzed by SPEX (embedded via
// sources.go), so inferred constraints correspond to real behaviour.
//
// The parameter set condenses MySQL 5.5's configuration surface: full-text
// search limits (ft_min/max_word_len, the paper's Figure 3f), the stopword
// file (Figure 3b), buffer-size parameters, enum parameters with MySQL's
// characteristic case-insensitive matching (and the one case-sensitive
// outlier, innodb_file_format_check, Figure 6a), and binlog parameters
// control-dependent on log_bin. Misconfiguration vulnerabilities are seeded
// to mirror the paper's Table 5 MySQL row: silent violations dominate, with
// a few crashes and early terminations.
package mydb

import (
	"strconv"
	"strings"

	"spex/internal/sim"
	"spex/internal/vnet"
)

// dbConfig holds every configuration parameter after parsing.
type dbConfig struct {
	port           int64
	bindAddress    string
	datadir        string
	socketFile     string
	pidFile        string
	maxConnections int64
	threadCache    int64
	listenerThrds  int64

	ftMinWordLen   int64
	ftMaxWordLen   int64
	ftStopwordFile string

	bufferPoolSize   int64
	logFileSize      int64
	keyBufferSize    int64
	sortBufferSize   int64
	maxAllowedPacket int64
	tmpTableSize     int64
	binlogCacheSize  int64
	perfHistSize     int64

	flushLogAtCommit int64
	fileFormatCheck  string
	characterSet     string
	collation        string
	sqlMode          string
	logOutput        string
	binlogFormat     string
	txIsolation      string
	flushMethod      string

	waitTimeout      int64
	netReadTimeout   int64
	lockWaitTimeout  int64
	spinWaitDelay    int64
	threadSleepDelay int64
	slowLaunchTime   int64

	logBin         bool
	generalLog     bool
	generalLogFile string
	skipNetworking bool
}

// intOption maps a numeric parameter name to its storage field
// (structure-based mapping, Figure 4a).
type intOption struct {
	name string
	ptr  *int64
	def  int64
}

// strOption maps a string parameter.
type strOption struct {
	name string
	ptr  *string
	def  string
}

// boolOption maps a boolean parameter.
type boolOption struct {
	name string
	ptr  *bool
	def  bool
}

var conf = &dbConfig{}

var intOptions = []intOption{
	{"port", &conf.port, 3306},
	{"max_connections", &conf.maxConnections, 151},
	{"thread_cache_size", &conf.threadCache, 9},
	{"listener_threads", &conf.listenerThrds, 1},
	{"ft_min_word_len", &conf.ftMinWordLen, 4},
	{"ft_max_word_len", &conf.ftMaxWordLen, 84},
	{"innodb_buffer_pool_size", &conf.bufferPoolSize, 134217728},
	{"innodb_log_file_size", &conf.logFileSize, 50331648},
	{"key_buffer_size", &conf.keyBufferSize, 8388608},
	{"sort_buffer_size", &conf.sortBufferSize, 2097152},
	{"max_allowed_packet", &conf.maxAllowedPacket, 4194304},
	{"tmp_table_size", &conf.tmpTableSize, 16777216},
	{"binlog_cache_size", &conf.binlogCacheSize, 32768},
	{"performance_schema_events_waits_history_size", &conf.perfHistSize, 10},
	{"innodb_flush_log_at_trx_commit", &conf.flushLogAtCommit, 1},
	{"wait_timeout", &conf.waitTimeout, 28800},
	{"net_read_timeout", &conf.netReadTimeout, 30},
	{"innodb_lock_wait_timeout", &conf.lockWaitTimeout, 50},
	{"innodb_spin_wait_delay", &conf.spinWaitDelay, 6},
	{"innodb_thread_sleep_delay", &conf.threadSleepDelay, 10},
	{"slow_launch_time", &conf.slowLaunchTime, 2},
}

var strOptions = []strOption{
	{"bind_address", &conf.bindAddress, "127.0.0.1"},
	{"datadir", &conf.datadir, "/var/lib/mydb"},
	{"socket", &conf.socketFile, "/var/run/mydb/mydb.sock"},
	{"pid_file", &conf.pidFile, "/var/run/mydb/mydb.pid"},
	{"ft_stopword_file", &conf.ftStopwordFile, "/var/lib/mydb/stopwords.txt"},
	{"innodb_file_format_check", &conf.fileFormatCheck, "Antelope"},
	{"character_set_server", &conf.characterSet, "utf8"},
	{"collation_server", &conf.collation, "utf8_general_ci"},
	{"sql_mode", &conf.sqlMode, "strict"},
	{"log_output", &conf.logOutput, "file"},
	{"binlog_format", &conf.binlogFormat, "statement"},
	{"tx_isolation", &conf.txIsolation, "repeatable-read"},
	{"innodb_flush_method", &conf.flushMethod, "fsync"},
	{"general_log_file", &conf.generalLogFile, "/var/lib/mydb/general.log"},
}

var boolOptions = []boolOption{
	{"log_bin", &conf.logBin, true},
	{"general_log", &conf.generalLog, false},
	{"skip_networking", &conf.skipNetworking, false},
}

// applyConfig parses the raw key/value map into the config struct. MySQL
// parses types strictly (Table 8: zero unsafe-transformation parameters):
// malformed values are rejected with a pinpointing message.
func applyConfig(env *sim.Env, vals map[string]string) error {
	for i := range intOptions {
		o := &intOptions[i]
		raw, ok := vals[o.name]
		if !ok {
			*o.ptr = o.def
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			env.Log.Errorf("[ERROR] option '%s' expects an integer, got '%s'", o.name, raw)
			return &sim.ExitError{Status: 1, Reason: "bad option " + o.name}
		}
		*o.ptr = v
	}
	for i := range strOptions {
		o := &strOptions[i]
		if raw, ok := vals[o.name]; ok {
			*o.ptr = strings.TrimSpace(raw)
		} else {
			*o.ptr = o.def
		}
	}
	for i := range boolOptions {
		o := &boolOptions[i]
		raw, ok := vals[o.name]
		if !ok {
			*o.ptr = o.def
			continue
		}
		switch strings.TrimSpace(raw) {
		case "on", "1":
			*o.ptr = true
		case "off", "0":
			*o.ptr = false
		default:
			env.Log.Errorf("[ERROR] option '%s' expects on/off, got '%s'", o.name, raw)
			return &sim.ExitError{Status: 1, Reason: "bad option " + o.name}
		}
	}
	return nil
}

// validate normalizes the parsed configuration. Several checks silently
// clamp out-of-range values — the paper's silent-violation vulnerabilities.
func validate(env *sim.Env, c *dbConfig) error {
	if c.maxConnections < 1 {
		c.maxConnections = 1
	} else if c.maxConnections > 100000 {
		c.maxConnections = 100000
	}
	if c.threadCache < 0 {
		c.threadCache = 0
	} else if c.threadCache > 16384 {
		c.threadCache = 16384
	}
	if c.listenerThrds < 1 {
		c.listenerThrds = 1
	}
	if c.ftMinWordLen < 1 {
		c.ftMinWordLen = 1
	}
	if c.ftMaxWordLen > 84 {
		c.ftMaxWordLen = 84
	}
	if c.maxAllowedPacket > 1073741824 {
		c.maxAllowedPacket = 1073741824
	}
	// innodb_lock_wait_timeout is properly rejected with a pinpointing
	// message (MySQL documents this range).
	if c.lockWaitTimeout < 1 || c.lockWaitTimeout > 1073741824 {
		env.Log.Errorf("[ERROR] innodb_lock_wait_timeout must be within [1, 1073741824], got %d", c.lockWaitTimeout)
		return &sim.ExitError{Status: 1, Reason: "innodb_lock_wait_timeout out of range"}
	}
	if c.netReadTimeout < 1 {
		c.netReadTimeout = 1
	}
	// innodb_flush_log_at_trx_commit accepts 0/1/2; anything else is
	// silently forced to 1 without a message.
	if c.flushLogAtCommit == 0 {
		_ = c.flushLogAtCommit
	} else if c.flushLogAtCommit == 1 {
		_ = c.flushLogAtCommit
	} else if c.flushLogAtCommit == 2 {
		_ = c.flushLogAtCommit
	} else {
		c.flushLogAtCommit = 1
	}
	// innodb_file_format_check is the case-SENSITIVE outlier (Figure 6a):
	// every other enum uses case-insensitive matching.
	if c.fileFormatCheck == "Antelope" {
		_ = c.fileFormatCheck
	} else if c.fileFormatCheck == "Barracuda" {
		_ = c.fileFormatCheck
	} else {
		env.Log.Errorf("[ERROR] unknown innodb_file_format_check value '%s'", c.fileFormatCheck)
		return &sim.ExitError{Status: 1, Reason: "bad innodb_file_format_check"}
	}
	if strings.EqualFold(c.characterSet, "utf8") {
		c.characterSet = "utf8"
	} else if strings.EqualFold(c.characterSet, "latin1") {
		c.characterSet = "latin1"
	} else if strings.EqualFold(c.characterSet, "binary") {
		c.characterSet = "binary"
	} else {
		c.characterSet = "utf8" // silently overruled, no message
	}
	if strings.EqualFold(c.collation, "utf8_general_ci") {
		c.collation = "utf8_general_ci"
	} else if strings.EqualFold(c.collation, "binary") {
		c.collation = "binary"
	} else {
		env.Log.Errorf("[ERROR] unknown collation_server value '%s'", c.collation)
		return &sim.ExitError{Status: 1, Reason: "bad collation_server"}
	}
	if strings.EqualFold(c.sqlMode, "strict") {
		c.sqlMode = "strict"
	} else if strings.EqualFold(c.sqlMode, "traditional") {
		c.sqlMode = "traditional"
	} else if strings.EqualFold(c.sqlMode, "ansi") {
		c.sqlMode = "ansi"
	} else {
		c.sqlMode = "strict" // silent overruling
	}
	if strings.EqualFold(c.logOutput, "file") {
		c.logOutput = "file"
	} else if strings.EqualFold(c.logOutput, "table") {
		c.logOutput = "table"
	} else if strings.EqualFold(c.logOutput, "none") {
		c.logOutput = "none"
	} else {
		c.logOutput = "file" // silent overruling
	}
	if strings.EqualFold(c.txIsolation, "read-committed") {
		c.txIsolation = "read-committed"
	} else if strings.EqualFold(c.txIsolation, "repeatable-read") {
		c.txIsolation = "repeatable-read"
	} else if strings.EqualFold(c.txIsolation, "serializable") {
		c.txIsolation = "serializable"
	} else {
		env.Log.Errorf("[ERROR] unknown tx_isolation value '%s'", c.txIsolation)
		return &sim.ExitError{Status: 1, Reason: "bad tx_isolation"}
	}
	if strings.EqualFold(c.flushMethod, "fsync") {
		c.flushMethod = "fsync"
	} else if strings.EqualFold(c.flushMethod, "o_dsync") {
		c.flushMethod = "o_dsync"
	} else if strings.EqualFold(c.flushMethod, "o_direct") {
		c.flushMethod = "o_direct"
	} else {
		c.flushMethod = "fsync" // silent overruling
	}
	return nil
}

// serverState is the running server.
type serverState struct {
	conf      *dbConfig
	stopwords []string
	ring      []byte
	workers   int64
}

// startServer boots the database: storage, full-text engine, worker pool,
// network listener. Several startup paths assume a correct configuration
// and misbehave on bad values (the seeded vulnerabilities).
func startServer(env *sim.Env, c *dbConfig) (*serverState, error) {
	if !env.FS.IsDir(c.datadir) {
		env.Log.Fatalf("[ERROR] Can't read dir of '%s'", "./data")
		return nil, &sim.ExitError{Status: 1, Reason: "cannot read data directory"}
	}
	// The Unix socket is created best-effort: errors are dropped, so a
	// bad path only surfaces when a client tries the socket (functional
	// failure without a message).
	_ = env.FS.WriteFile(c.socketFile, []byte("sock"), 6)
	_ = env.FS.WriteFile(c.pidFile, []byte("1"), 6)

	// Full-text engine: the stopword file is read without checking the
	// error, then indexed — a missing or unreadable file crashes the
	// server (Figure 5b).
	data, _ := env.FS.ReadFile(c.ftStopwordFile)
	header := data[0] // panics on nil data: "segmentation fault"
	_ = header
	st := &serverState{conf: c, stopwords: strings.Fields(string(data))}

	// The performance-schema history ring is allocated from the raw
	// size; a negative size panics (crash, Figure 7a).
	st.ring = allocBuffer(c.perfHistSize)

	// Worker pool: a hard-coded maximum of 16 listener slots, not
	// validated (the OpenLDAP listener-threads pattern, Figure 2).
	st.workers = spawnWorkers(c.listenerThrds)

	allocPool(c.bufferPoolSize)
	allocPool(c.keyBufferSize)
	allocPool(c.sortBufferSize)
	allocPool(c.tmpTableSize)
	allocPool(c.logFileSize)
	packets := allocBuffer(c.maxAllowedPacket)
	_ = packets

	if !c.skipNetworking {
		if !vnet.ValidIP(c.bindAddress) {
			env.Log.Errorf("[ERROR] invalid bind_address value '%s'", c.bindAddress)
			return nil, &sim.ExitError{Status: 1, Reason: "bad bind_address"}
		}
		if err := env.Net.Bind("tcp", int(c.port), "mydb"); err != nil {
			env.Log.Fatalf("[ERROR] Can't create IP socket: %v", err)
			return nil, &sim.ExitError{Status: 1, Reason: "bind failed"}
		}
	}
	if c.logBin {
		allocPool(c.binlogCacheSize)
		// Replication format only matters with binary logging on; an
		// unknown value is silently overruled to "statement".
		if strings.EqualFold(c.binlogFormat, "row") {
			c.binlogFormat = "row"
		} else if strings.EqualFold(c.binlogFormat, "statement") {
			c.binlogFormat = "statement"
		} else if strings.EqualFold(c.binlogFormat, "mixed") {
			c.binlogFormat = "mixed"
		} else {
			c.binlogFormat = "statement"
		}
	}
	if c.generalLog {
		_ = env.FS.WriteFile(c.generalLogFile, nil, 6)
	}
	sleepSeconds(c.slowLaunchTime)
	return st, nil
}

// search runs a full-text lookup: only words within
// [ft_min_word_len, ft_max_word_len) are indexed (Figure 3f).
func (st *serverState) search(word string) bool {
	length := int64(len(word))
	if length >= st.conf.ftMinWordLen && length < st.conf.ftMaxWordLen {
		for _, sw := range st.stopwords {
			if sw == word {
				return false
			}
		}
		return true
	}
	return false
}

// commitDelay simulates the commit path: the spin delay and sleep delays
// apply per transaction.
func (st *serverState) commitDelay() {
	sleepMicros(st.conf.spinWaitDelay)
	sleepMillis(st.conf.threadSleepDelay)
	sleepSeconds(st.conf.waitTimeout)
	sleepSeconds(st.conf.lockWaitTimeout)
	sleepSeconds(st.conf.netReadTimeout)
}

// --- target-local runtime helpers (registered in the API knowledge
// base; real implementations below are what actually executes) ---

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

func allocPool(n int64) {
	if n < 0 {
		return // negative pool sizes are quietly tolerated
	}
}

func spawnWorkers(n int64) int64 {
	var slots [16]int64
	for i := int64(0); i < n; i++ {
		slots[i] = i // panics when n exceeds the hard-coded 16 slots
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

func sleepMicros(n int64) {
	if n <= 0 {
		return
	}
}
