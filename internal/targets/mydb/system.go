package mydb

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

// System is the mydb target.
type System struct{}

// New returns the mydb target system.
func New() *System { return &System{} }

func (s *System) Name() string        { return "mydb" }
func (s *System) Description() string { return "MySQL-like database server (structure mapping)" }

func (s *System) Syntax() conffile.Syntax { return conffile.SyntaxEquals }

// Sources returns the analyzed corpus: the same code the runtime executes.
func (s *System) Sources() map[string]string {
	return map[string]string{"corpus.go": corpusSource}
}

// Annotations seed the structure-based mapping toolkits (Figure 4a): three
// option tables, one block each.
func (s *System) Annotations() string {
	return `# mydb option tables (structure-based mapping)
{ @STRUCT = intOptions  @PAR = [intOption, 1]  @VAR = [intOption, 2] }
{ @STRUCT = strOptions  @PAR = [strOption, 1]  @VAR = [strOption, 2] }
{ @STRUCT = boolOptions @PAR = [boolOption, 1] @VAR = [boolOption, 2] }`
}

// DefaultConfig is the template configuration file (all defaults).
func (s *System) DefaultConfig() string {
	return `# mydb server configuration
port = 3306
bind_address = 127.0.0.1
datadir = /var/lib/mydb
socket = /var/run/mydb/mydb.sock
pid_file = /var/run/mydb/mydb.pid
max_connections = 151
thread_cache_size = 9
listener_threads = 1
ft_min_word_len = 4
ft_max_word_len = 84
ft_stopword_file = /var/lib/mydb/stopwords.txt
innodb_buffer_pool_size = 134217728
innodb_log_file_size = 50331648
key_buffer_size = 8388608
sort_buffer_size = 2097152
max_allowed_packet = 4194304
tmp_table_size = 16777216
binlog_cache_size = 32768
performance_schema_events_waits_history_size = 10
innodb_flush_log_at_trx_commit = 1
innodb_file_format_check = Antelope
character_set_server = utf8
collation_server = utf8_general_ci
sql_mode = strict
log_output = file
binlog_format = statement
tx_isolation = repeatable-read
innodb_flush_method = fsync
wait_timeout = 28800
net_read_timeout = 30
innodb_lock_wait_timeout = 50
innodb_spin_wait_delay = 6
innodb_thread_sleep_delay = 10
slow_launch_time = 2
log_bin = on
general_log = off
general_log_file = /var/lib/mydb/general.log
skip_networking = off
`
}

// SetupEnv populates the virtual substrates the default configuration
// expects.
func (s *System) SetupEnv(env *sim.Env) {
	_ = env.FS.MkdirAll("/var/lib/mydb")
	_ = env.FS.MkdirAll("/var/run/mydb")
	_ = env.FS.WriteFile("/var/lib/mydb/stopwords.txt", []byte("the a an and or of"), 6)
}

// instance is a started mydb server.
type instance struct {
	st        *serverState
	effective map[string]string
	env       *sim.Env
}

func (i *instance) Effective(param string) (string, bool) {
	v, ok := i.effective[param]
	return v, ok
}

func (i *instance) Stop() {
	i.env.Net.ReleaseOwner("mydb")
}

// bootMu serializes the option-table parse phase: the corpus models
// MySQL's real package-level config variables, so concurrent boots must
// not interleave until the parsed values are copied out of the globals.
var bootMu sync.Mutex

// arena backs the corpus's allocBuffer. Nothing reads the buffer: the
// array exists only so the corpus keeps its negative-length crash and its
// 1 MiB cap without allocating on every boot. No boot writes it, so
// concurrent boots share it.
var arena [1 << 20]byte

// Start parses, validates, and boots mydb on the given substrates.
func (s *System) Start(env *sim.Env, cfg *conffile.File) (sim.Instance, error) {
	c, err := loadConfig(env, cfg)
	if err != nil {
		return nil, err
	}
	if err := validate(env, c); err != nil {
		return nil, err
	}
	st, err := startServer(env, c)
	if err != nil {
		return nil, err
	}
	return &instance{st: st, effective: snapshot(c), env: env}, nil
}

// loadConfig runs the global-config parse under bootMu and hands back a
// private copy; validation, boot, and the functional tests all operate
// on the copy and may run concurrently with other boots.
func loadConfig(env *sim.Env, cfg *conffile.File) (*dbConfig, error) {
	bootMu.Lock()
	defer bootMu.Unlock()
	*conf = dbConfig{} // reset in place: the option tables hold field pointers
	if err := applyConfig(env, cfg.Map()); err != nil {
		return nil, err
	}
	c := *conf
	return &c, nil
}

func snapshot(c *dbConfig) map[string]string {
	m := map[string]string{}
	ib := func(name string, v int64) { m[name] = strconv.FormatInt(v, 10) }
	sb := func(name, v string) { m[name] = v }
	bb := func(name string, v bool) {
		if v {
			m[name] = "on"
		} else {
			m[name] = "off"
		}
	}
	ib("port", c.port)
	sb("bind_address", c.bindAddress)
	sb("datadir", c.datadir)
	sb("socket", c.socketFile)
	sb("pid_file", c.pidFile)
	ib("max_connections", c.maxConnections)
	ib("thread_cache_size", c.threadCache)
	ib("listener_threads", c.listenerThrds)
	ib("ft_min_word_len", c.ftMinWordLen)
	ib("ft_max_word_len", c.ftMaxWordLen)
	sb("ft_stopword_file", c.ftStopwordFile)
	ib("innodb_buffer_pool_size", c.bufferPoolSize)
	ib("innodb_log_file_size", c.logFileSize)
	ib("key_buffer_size", c.keyBufferSize)
	ib("sort_buffer_size", c.sortBufferSize)
	ib("max_allowed_packet", c.maxAllowedPacket)
	ib("tmp_table_size", c.tmpTableSize)
	ib("binlog_cache_size", c.binlogCacheSize)
	ib("performance_schema_events_waits_history_size", c.perfHistSize)
	ib("innodb_flush_log_at_trx_commit", c.flushLogAtCommit)
	sb("innodb_file_format_check", c.fileFormatCheck)
	sb("character_set_server", c.characterSet)
	sb("collation_server", c.collation)
	sb("sql_mode", c.sqlMode)
	sb("log_output", c.logOutput)
	sb("binlog_format", c.binlogFormat)
	sb("tx_isolation", c.txIsolation)
	sb("innodb_flush_method", c.flushMethod)
	ib("wait_timeout", c.waitTimeout)
	ib("net_read_timeout", c.netReadTimeout)
	ib("innodb_lock_wait_timeout", c.lockWaitTimeout)
	ib("innodb_spin_wait_delay", c.spinWaitDelay)
	ib("innodb_thread_sleep_delay", c.threadSleepDelay)
	ib("slow_launch_time", c.slowLaunchTime)
	bb("log_bin", c.logBin)
	bb("general_log", c.generalLog)
	sb("general_log_file", c.generalLogFile)
	bb("skip_networking", c.skipNetworking)
	return m
}

// Tests is mydb's own functional test suite (the paper drives SPEX-INJ with
// each system's shipped tests).
func (s *System) Tests() []sim.FuncTest {
	return []sim.FuncTest{
		{
			Name: "connect", Weight: 1,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if i.st.conf.skipNetworking {
					return nil
				}
				if !env.Net.Occupied("tcp", int(i.st.conf.port)) {
					return fmt.Errorf("server is not listening on its TCP port")
				}
				return nil
			},
		},
		{
			Name: "unix-socket", Weight: 2,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if !env.FS.Exists(i.st.conf.socketFile) {
					return fmt.Errorf("unix socket file missing")
				}
				return nil
			},
		},
		{
			Name: "txn-commit", Weight: 3,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				i.st.commitDelay()
				return nil
			},
		},
		{
			Name: "ft-search", Weight: 5,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if !i.st.search("database") {
					return fmt.Errorf("full-text search missed an indexed word")
				}
				if i.st.search("the") {
					return fmt.Errorf("full-text search returned a stopword")
				}
				return nil
			},
		},
		{
			Name: "binlog-format", Weight: 2,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if !i.st.conf.logBin {
					return nil
				}
				switch i.st.conf.binlogFormat {
				case "row", "statement", "mixed":
					return nil
				}
				return fmt.Errorf("binlog running with invalid format %q", i.st.conf.binlogFormat)
			},
		},
	}
}

// Manual is mydb's user manual: which constraints are documented per
// parameter. Several inferred constraints are deliberately undocumented
// (Table 8).
func (s *System) Manual() map[string]sim.ManualEntry {
	doc := func(prose string, kinds ...constraint.Kind) sim.ManualEntry {
		return sim.ManualEntry{Prose: prose, Documented: kinds}
	}
	return map[string]sim.ManualEntry{
		"port":         doc("TCP port the server listens on.", constraint.KindBasicType, constraint.KindSemanticType),
		"bind_address": doc("IP address to bind to.", constraint.KindBasicType, constraint.KindSemanticType),
		"datadir":      doc("Path to the data directory.", constraint.KindBasicType, constraint.KindSemanticType),
		"socket":       doc("Unix socket file path.", constraint.KindBasicType, constraint.KindSemanticType),
		"max_connections": doc("Maximum permitted simultaneous client connections; clamped to [1, 100000].",
			constraint.KindBasicType, constraint.KindRange),
		"innodb_lock_wait_timeout": doc("Transaction lock wait timeout in seconds, within [1, 1073741824].",
			constraint.KindBasicType, constraint.KindRange, constraint.KindSemanticType),
		"ft_min_word_len":          doc("Minimum indexed word length.", constraint.KindBasicType),
		"ft_max_word_len":          doc("Maximum indexed word length.", constraint.KindBasicType),
		"ft_stopword_file":         doc("File of stopwords for full-text indexing.", constraint.KindBasicType, constraint.KindSemanticType),
		"binlog_format":            doc("Binary log format: ROW, STATEMENT or MIXED.", constraint.KindBasicType, constraint.KindRange),
		"innodb_file_format_check": doc("InnoDB file format to enforce.", constraint.KindBasicType),
		"wait_timeout":             doc("Seconds the server waits on an idle connection.", constraint.KindBasicType, constraint.KindSemanticType),
	}
}

// GroundTruth is the manually verified constraint set used to score
// inference accuracy (Table 12).
func (s *System) GroundTruth() *constraint.Set {
	gt := constraint.NewSet("mydb")
	b := func(p string, t constraint.BasicType) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindBasicType, Param: p, Basic: t})
	}
	sem := func(p string, t constraint.SemanticType, u constraint.Unit) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindSemanticType, Param: p, Semantic: t, Unit: u})
	}
	rng := func(p string, min, max int64, hasMin, hasMax bool) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindRange, Param: p,
			Intervals: []constraint.Interval{{Min: min, Max: max, HasMin: hasMin, HasMax: hasMax, Valid: true}}})
	}
	enum := func(p string, vals ...string) {
		evs := make([]constraint.EnumValue, len(vals))
		for i, v := range vals {
			evs[i] = constraint.EnumValue{Value: v, Valid: true}
		}
		gt.Add(&constraint.Constraint{Kind: constraint.KindRange, Param: p, Enum: evs})
	}
	dep := func(q, p string, op constraint.Op, v string) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindControlDep, Param: q, Peer: p, Cond: op, Value: v})
	}

	for _, p := range []string{
		"port", "max_connections", "thread_cache_size", "listener_threads",
		"ft_min_word_len", "ft_max_word_len", "innodb_buffer_pool_size",
		"innodb_log_file_size", "key_buffer_size", "sort_buffer_size",
		"max_allowed_packet", "tmp_table_size", "binlog_cache_size",
		"performance_schema_events_waits_history_size",
		"innodb_flush_log_at_trx_commit", "wait_timeout", "net_read_timeout",
		"innodb_lock_wait_timeout", "innodb_spin_wait_delay",
		"innodb_thread_sleep_delay", "slow_launch_time",
	} {
		b(p, constraint.BasicInt64)
	}
	for _, p := range []string{
		"bind_address", "datadir", "socket", "pid_file", "ft_stopword_file",
		"innodb_file_format_check", "character_set_server", "collation_server",
		"sql_mode", "log_output", "binlog_format", "tx_isolation",
		"innodb_flush_method", "general_log_file",
	} {
		b(p, constraint.BasicString)
	}
	for _, p := range []string{"log_bin", "general_log", "skip_networking"} {
		b(p, constraint.BasicBool)
	}

	sem("port", constraint.SemPort, constraint.UnitNone)
	sem("bind_address", constraint.SemIPAddr, constraint.UnitNone)
	sem("datadir", constraint.SemDirectory, constraint.UnitNone)
	sem("socket", constraint.SemFile, constraint.UnitNone)
	sem("pid_file", constraint.SemFile, constraint.UnitNone)
	sem("ft_stopword_file", constraint.SemFile, constraint.UnitNone)
	sem("general_log_file", constraint.SemFile, constraint.UnitNone)
	for _, p := range []string{
		"innodb_buffer_pool_size", "innodb_log_file_size", "key_buffer_size",
		"sort_buffer_size", "max_allowed_packet", "tmp_table_size",
		"binlog_cache_size", "performance_schema_events_waits_history_size",
	} {
		sem(p, constraint.SemSize, constraint.UnitByte)
	}
	sem("listener_threads", constraint.SemCount, constraint.UnitNone)
	sem("wait_timeout", constraint.SemTimeout, constraint.UnitSecond)
	sem("net_read_timeout", constraint.SemTimeout, constraint.UnitSecond)
	sem("innodb_lock_wait_timeout", constraint.SemTimeout, constraint.UnitSecond)
	sem("slow_launch_time", constraint.SemTimeout, constraint.UnitSecond)
	sem("innodb_spin_wait_delay", constraint.SemTimeout, constraint.UnitMicrosecond)
	sem("innodb_thread_sleep_delay", constraint.SemTimeout, constraint.UnitMillisecond)

	rng("max_connections", 1, 100000, true, true)
	rng("thread_cache_size", 0, 16384, true, true)
	rng("listener_threads", 1, 0, true, false)
	rng("ft_min_word_len", 1, 0, true, false)
	rng("ft_max_word_len", 0, 84, false, true)
	rng("max_allowed_packet", 0, 1073741824, false, true)
	rng("innodb_lock_wait_timeout", 1, 1073741824, true, true)
	rng("net_read_timeout", 1, 0, true, false)
	rng("innodb_flush_log_at_trx_commit", 0, 2, true, true)
	enum("innodb_file_format_check", "Antelope", "Barracuda")
	enum("character_set_server", "utf8", "latin1", "binary")
	enum("collation_server", "utf8_general_ci", "binary")
	enum("sql_mode", "strict", "traditional", "ansi")
	enum("log_output", "file", "table", "none")
	enum("binlog_format", "row", "statement", "mixed")
	enum("tx_isolation", "read-committed", "repeatable-read", "serializable")
	enum("innodb_flush_method", "fsync", "o_dsync", "o_direct")

	dep("binlog_format", "log_bin", constraint.OpEQ, "true")
	dep("binlog_cache_size", "log_bin", constraint.OpEQ, "true")
	dep("general_log_file", "general_log", constraint.OpEQ, "true")
	dep("port", "skip_networking", constraint.OpEQ, "false")
	dep("bind_address", "skip_networking", constraint.OpEQ, "false")

	gt.Add(&constraint.Constraint{Kind: constraint.KindValueRel,
		Param: "ft_max_word_len", Rel: constraint.OpGT, Peer: "ft_min_word_len"})
	return gt
}

var _ sim.System = (*System)(nil)
