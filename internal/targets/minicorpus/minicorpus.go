// Package minicorpus bundles small configuration-handling snippets from the
// 11 projects of the paper's Table 1 that are not full simulation targets
// (Redis, ntpd, CVS, Hypertable, MongoDB, AOLServer, Subversion, lighttpd,
// Nginx, OpenSSH, Postfix). Together with the seven simulated systems they
// reproduce the 18-project parameter-to-variable mapping survey: every
// project uses the structure, comparison, or container convention (or a
// hybrid). Survey runs the extraction toolkits over every snippet on the
// engine worker pool and folds the measured conventions back in project
// order.
package minicorpus

import (
	"context"
	"fmt"

	"spex/internal/annot"
	"spex/internal/engine"
	"spex/internal/frontend"
	"spex/internal/mapping"
)

// Project is one surveyed project: a corpus snippet plus its mapping
// annotation.
type Project struct {
	Name        string
	Description string
	Sources     map[string]string
	Annotations string
	// WantConvention is the convention Table 1 reports for the project.
	WantConvention string
}

// SurveyResult is one project's measured extraction outcome.
type SurveyResult struct {
	Project Project
	// Pairs is the number of parameter-to-variable mapping pairs the
	// toolkits extracted.
	Pairs int
	// Convention is the mapping convention measured from the project's
	// annotations — the value Table 1 renders (WantConvention is the
	// paper's published answer it is checked against).
	Convention string
}

// Survey runs the 11-project mapping survey through the engine worker
// pool, workers wide (0 = one per CPU): every project's corpus is
// parsed (frontend.Parse) and its mapping pairs extracted
// (mapping.Extract) concurrently, and the results fold back
// deterministically in Projects() order — the parallel survey renders
// the exact Table 1 rows the sequential loop did. Any project failing
// to parse or extract fails the survey.
func Survey(ctx context.Context, workers int) ([]SurveyResult, error) {
	projects := Projects()
	results, cancelErr := engine.Run(ctx, len(projects), workers, func(_ context.Context, i int) (SurveyResult, error) {
		p := projects[i]
		proj, err := frontend.Parse(p.Name, p.Sources)
		if err != nil {
			return SurveyResult{}, fmt.Errorf("minicorpus: %s: %w", p.Name, err)
		}
		af, err := annot.Parse(p.Annotations)
		if err != nil {
			return SurveyResult{}, fmt.Errorf("minicorpus: %s: %w", p.Name, err)
		}
		pairs, err := mapping.Extract(proj, af)
		if err != nil {
			return SurveyResult{}, fmt.Errorf("minicorpus: %s: %w", p.Name, err)
		}
		return SurveyResult{Project: p, Pairs: len(pairs), Convention: mapping.Convention(af)}, nil
	})
	if cancelErr != nil {
		return nil, cancelErr
	}
	if err := engine.FirstError(results); err != nil {
		return nil, err
	}
	out, _ := engine.Values(results)
	return out, nil
}

// Projects returns the 11 surveyed snippets.
func Projects() []Project {
	return []Project{
		{
			Name: "Redis", Description: "in-memory data store",
			WantConvention: "comparison",
			Sources:        map[string]string{"config.go": redisSrc},
			Annotations: `{ @PARSER = loadServerConfig
  @PAR = $argv[0]  @VAR = $argv[1] }`,
		},
		{
			Name: "ntpd", Description: "network time daemon",
			WantConvention: "comparison",
			Sources:        map[string]string{"config.go": ntpdSrc},
			Annotations: `{ @PARSER = applyNtpKeyword
  @PAR = $keyword  @VAR = $arg }`,
		},
		{
			Name: "CVS", Description: "version control system",
			WantConvention: "comparison",
			Sources:        map[string]string{"config.go": cvsSrc},
			Annotations: `{ @PARSER = parseCvsrootOption
  @PAR = $opt  @VAR = $val }`,
		},
		{
			Name: "Hypertable", Description: "distributed database",
			WantConvention: "container",
			Sources:        map[string]string{"config.go": hypertableSrc},
			Annotations: `{ @GETTER = getI32
  @PAR = 1  @VAR = $RET }`,
		},
		{
			Name: "MongoDB", Description: "document database",
			WantConvention: "container",
			Sources:        map[string]string{"config.go": mongoSrc},
			Annotations: `{ @GETTER = getParam
  @PAR = 1  @VAR = $RET }`,
		},
		{
			Name: "AOLServer", Description: "web server",
			WantConvention: "container",
			Sources:        map[string]string{"config.go": aolserverSrc},
			Annotations: `{ @GETTER = configIntRange
  @PAR = 2  @VAR = $RET }`,
		},
		{
			Name: "Subversion", Description: "version control system",
			WantConvention: "container",
			Sources:        map[string]string{"config.go": svnSrc},
			Annotations: `{ @GETTER = svnConfigGet
  @PAR = 2  @VAR = $RET }`,
		},
		{
			Name: "lighttpd", Description: "web server",
			WantConvention: "structure",
			Sources:        map[string]string{"config.go": lighttpdSrc},
			Annotations: `{ @STRUCT = configValues
  @PAR = [configValue, 1]  @VAR = [configValue, 2] }`,
		},
		{
			Name: "Nginx", Description: "web server",
			WantConvention: "structure",
			Sources:        map[string]string{"config.go": nginxSrc},
			Annotations: `{ @STRUCT = coreCommands
  @PAR = [ngxCommand, 1]  @VAR = ([ngxCommand, 2], $value) }`,
		},
		{
			Name: "OpenSSH", Description: "SSH daemon",
			WantConvention: "structure",
			Sources:        map[string]string{"config.go": opensshSrc},
			Annotations: `{ @STRUCT = sshdOptions
  @PAR = [sshOption, 1]  @VAR = [sshOption, 2] }`,
		},
		{
			Name: "Postfix", Description: "mail server",
			WantConvention: "structure",
			Sources:        map[string]string{"config.go": postfixSrc},
			Annotations: `{ @STRUCT = intTable
  @PAR = [intParam, 1]  @VAR = [intParam, 2] }`,
		},
	}
}

const redisSrc = `package redis

type serverConf struct {
	maxidletime int64
	port        int64
	logfile     string
}

var server = &serverConf{}

func atoi(s string) int64 { return 0 }

func loadServerConfig(argv []string) {
	if argv[0] == "timeout" {
		server.maxidletime = atoi(argv[1])
	} else if argv[0] == "port" {
		server.port = atoi(argv[1])
	} else if argv[0] == "logfile" {
		server.logfile = argv[1]
	}
}
`

const ntpdSrc = `package ntpd

type ntpConf struct {
	driftfile string
	tos       int64
}

var nconf = &ntpConf{}

func atoi(s string) int64 { return 0 }

func applyNtpKeyword(keyword string, arg string) {
	if keyword == "driftfile" {
		nconf.driftfile = arg
	} else if keyword == "tos" {
		nconf.tos = atoi(arg)
	}
}
`

const cvsSrc = `package cvs

type cvsConf struct {
	lockDir    string
	historyLog bool
}

var cconf = &cvsConf{}

func parseCvsrootOption(opt string, val string) {
	if opt == "LockDir" {
		cconf.lockDir = val
	} else if opt == "LogHistory" {
		if val == "all" {
			cconf.historyLog = true
		} else {
			cconf.historyLog = false
		}
	}
}
`

const hypertableSrc = `package hypertable

type props struct{}

func (p *props) getI32(name string) int64 { return 0 }

type master struct {
	retryInterval int64
	port          int64
}

var ctx = &props{}
var m = &master{}

func initMaster() {
	m.retryInterval = ctx.getI32("Connection.Retry.Interval")
	m.port = ctx.getI32("Hypertable.Master.Port")
}
`

const mongoSrc = `package mongo

type paramStore struct{}

func (s *paramStore) getParam(name string) string { return "" }

type mongodConf struct {
	dbpath  string
	logpath string
}

var store = &paramStore{}
var mconf = &mongodConf{}

func initServer() {
	mconf.dbpath = store.getParam("dbpath")
	mconf.logpath = store.getParam("logpath")
}
`

const aolserverSrc = `package aolserver

type nsconf struct{}

func (c *nsconf) configIntRange(section string, key string) int64 { return 0 }

type tcpConf struct {
	backlog    int64
	maxthreads int64
}

var ns = &nsconf{}
var tcp = &tcpConf{}

func initSock() {
	tcp.backlog = ns.configIntRange("ns/server", "backlog")
	tcp.maxthreads = ns.configIntRange("ns/server", "maxthreads")
}
`

const svnSrc = `package svn

type svnConfig struct{}

func (c *svnConfig) svnConfigGet(section string, option string) string { return "" }

type fsConf struct {
	repoPath string
}

var sconf = &svnConfig{}
var fs = &fsConf{}

func initRepos() {
	fs.repoPath = sconf.svnConfigGet("repositories", "root")
}
`

const lighttpdSrc = `package lighttpd

type srvConf struct {
	maxConns   int64
	docRoot    string
	maxWorkers int64
}

var srv = &srvConf{}

type configValue struct {
	name string
	ptr  interface{}
}

var configValues = []configValue{
	{"server.max-connections", &srv.maxConns},
	{"server.document-root", &srv.docRoot},
	{"server.max-worker", &srv.maxWorkers},
}
`

const nginxSrc = `package nginx

type coreConf struct {
	workerProcesses int64
	errorLog        string
}

var ngx = &coreConf{}

func atoi(s string) int64 { return 0 }

func setWorkerProcesses(value string) { ngx.workerProcesses = atoi(value) }
func setErrorLog(value string)        { ngx.errorLog = value }

type ngxCommand struct {
	name    string
	handler func(value string)
}

var coreCommands = []ngxCommand{
	{"worker_processes", setWorkerProcesses},
	{"error_log", setErrorLog},
}
`

const opensshSrc = `package openssh

type sshdConf struct {
	port          int64
	permitRootLogin bool
	authKeysFile  string
}

var sshd = &sshdConf{}

type sshOption struct {
	name string
	ptr  interface{}
}

var sshdOptions = []sshOption{
	{"Port", &sshd.port},
	{"PermitRootLogin", &sshd.permitRootLogin},
	{"AuthorizedKeysFile", &sshd.authKeysFile},
}
`

const postfixSrc = `package postfix

type mailConf struct {
	processLimit int64
	queueRunDelay int64
}

var mail = &mailConf{}

type intParam struct {
	name string
	ptr  *int64
	def  int64
}

var intTable = []intParam{
	{"default_process_limit", &mail.processLimit, 100},
	{"queue_run_delay", &mail.queueRunDelay, 300},
}
`
